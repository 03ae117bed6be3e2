package jobs

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"ascoma/internal/runcache"
	"ascoma/internal/stats"
)

// TestGridDispatchKeepsSpecOutput runs a grid on a single-slot pool so
// dispatch order is observable as completion order, then checks that the
// cells start in spec order and that the assembled result is
// byte-identical to running the same cells one by one.
func TestGridDispatchKeepsSpecOutput(t *testing.T) {
	g := GridSpec{Apps: []string{"uniform"}, Archs: []string{"S-COMA"}, Pressures: []int{10, 50, 90}, Scale: 32}
	cells, err := g.cells(4096)
	if err != nil {
		t.Fatal(err)
	}

	m := NewManager(&runcache.Runner{Jobs: 1}, Options{})
	defer m.Close()
	j, err := m.Submit(Spec{Grid: &g})
	if err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(2 * time.Minute)
	for {
		if _, terminal := j.Events(0); terminal {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("grid job did not finish; status %+v", j.Status())
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := j.Status()
	if st.State != StateDone {
		t.Fatalf("job state %s (%s)", st.State, st.Error)
	}

	evs, _ := j.Events(0)
	var dispatched []int
	for _, ev := range evs {
		if ev.Type == "cell" {
			dispatched = append(dispatched, ev.Cell.Index)
		}
	}
	spec := make([]int, len(cells))
	for i := range spec {
		spec[i] = i
	}
	if !reflect.DeepEqual(dispatched, spec) {
		t.Errorf("single-slot completion order %v, want spec order %v", dispatched, spec)
	}

	// Reference: the same cells, simulated one by one in spec order.
	ref := make([]CellResult, len(cells))
	runner := &runcache.Runner{Jobs: 1}
	for i, cfg := range cells {
		res, err := runner.Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref[i] = CellResult{
			Arch: cfg.Arch.String(), Workload: cfg.Workload,
			Pressure: cfg.Pressure, Result: stats.Report(res.Machine),
		}
	}
	got, err := json.Marshal(st.Result)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("grid job changed assembled grid bytes:\ngot  %s\nwant %s", got, want)
	}
}
