package runcache

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ascoma"
	"ascoma/internal/obs"
)

func runAllCells(pressures ...int) []ascoma.Config {
	cells := make([]ascoma.Config, len(pressures))
	for i, p := range pressures {
		cells[i] = testCfg(p)
	}
	return cells
}

func TestRunAllSlotOrderAndInputOrder(t *testing.T) {
	cells := runAllCells(70, 10, 50, 30)
	r := &Runner{Jobs: 1}
	var started []int
	res, err := r.RunAll(context.Background(), cells, func(i int, _ *ascoma.Result) {
		started = append(started, i)
	})
	if err != nil {
		t.Fatal(err)
	}
	// One slot means one worker: completion order is start order.
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(started, want) {
		t.Errorf("one-slot start order %v, want %v", started, want)
	}
	for i, cfg := range cells {
		if res[i] == nil || res[i].Pressure != cfg.Pressure {
			t.Errorf("result %d is not cell %d's (pressure %d)", i, i, cfg.Pressure)
		}
	}
}

func TestRunAllDoneOncePerCellNeverConcurrent(t *testing.T) {
	cells := runAllCells(10, 20, 30, 40, 50, 60)
	r := &Runner{Jobs: 4}
	var active, overlap atomic.Int32
	calls := make([]int, len(cells)) // unsynchronized: done owns it
	res, err := r.RunAll(context.Background(), cells, func(i int, res *ascoma.Result) {
		if active.Add(1) > 1 {
			overlap.Add(1)
		}
		calls[i]++
		if res.Pressure != cells[i].Pressure {
			t.Errorf("done(%d) got pressure %d's result", i, res.Pressure)
		}
		time.Sleep(2 * time.Millisecond) // widen the window an overlap would need
		active.Add(-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := overlap.Load(); n != 0 {
		t.Errorf("done ran concurrently %d times", n)
	}
	for i, n := range calls {
		if n != 1 {
			t.Errorf("done called %d times for cell %d", n, i)
		}
		if res[i].Pressure != cells[i].Pressure {
			t.Errorf("result %d out of input order", i)
		}
	}
}

func TestRunAllFailureStopsDispatchAndNamesCell(t *testing.T) {
	cache, err := New(16, "")
	if err != nil {
		t.Fatal(err)
	}
	cells := runAllCells(10, 20, 30, 40)
	cells[1].Workload = "no-such-workload"
	r := &Runner{Cache: cache, Jobs: 1}
	var finished []int
	res, err := r.RunAll(context.Background(), cells, func(i int, _ *ascoma.Result) {
		finished = append(finished, i)
	})
	if err == nil || res != nil {
		t.Fatalf("RunAll = %v, %v; want a failure", res, err)
	}
	if want := "no-such-workload AS-COMA(20%)"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name the failing cell %q", err, want)
	}
	// Cell 0 simulated, cell 1 failed; cells 2 and 3 never started.
	if st := cache.Stats(); st.Sims != 1 || st.Errors != 1 || st.Lookups() != 2 {
		t.Errorf("stats = %+v, want 1 sim + 1 error and no later lookups", st)
	}
	if !reflect.DeepEqual(finished, []int{0}) {
		t.Errorf("done called for %v, want [0]", finished)
	}
}

func TestRunAllNamesTieredCell(t *testing.T) {
	cfg := testCfg(70)
	cfg.Workload = "no-such-workload"
	cfg.Tiers = []ascoma.TierSpec{{CapacityPct: 50, ReadCycles: 40, WriteCycles: 40}, {CapacityPct: 50, ReadCycles: 160, WriteCycles: 320}}
	cfg.PagePolicy = "open"
	_, err := (&Runner{Jobs: 1}).RunAll(context.Background(), []ascoma.Config{cfg}, nil)
	want := "no-such-workload AS-COMA(70%) tiers=50:40:40,50:160:320 policy=open: "
	if err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Errorf("err = %v, want prefix %q", err, want)
	}
}

func TestRunAllCancelledBeforeStart(t *testing.T) {
	cache, err := New(16, "")
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Cache: cache, Jobs: 2}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	called := false
	if _, err := r.RunAll(ctx, runAllCells(10, 50), func(int, *ascoma.Result) { called = true }); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if st := cache.Stats(); st.Lookups() != 0 || called {
		t.Errorf("cancelled RunAll reached the cache (%+v) or called done (%v)", st, called)
	}
}

// TestRunAllOneSlotOrderWithFills: on one slot, cells start in slice order
// even when some are filled from an earlier run, and the fills are
// counted as shared, not simulated.
func TestRunAllOneSlotOrderWithFills(t *testing.T) {
	cache, err := New(16, "")
	if err != nil {
		t.Fatal(err)
	}
	cells := runAllCells(4, 90, 8, 12, 6)
	r := &Runner{Cache: cache, Jobs: 1}
	var order []int
	res, err := r.RunAll(context.Background(), cells, func(i int, _ *ascoma.Result) {
		order = append(order, i)
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 3, 4}; !reflect.DeepEqual(order, want) {
		t.Errorf("one-slot order %v, want %v", order, want)
	}
	if res[0].PressureCeiling < 12 {
		t.Fatalf("4%% ceiling %d; the test needs it to cover 12%%", res[0].PressureCeiling)
	}
	// 4 and 90 simulate; 8, 12 and 6 are filled from 4.
	if st := cache.Stats(); st.Sims != 2 || st.Shared != 3 || st.HitRate() != 0.6 {
		t.Errorf("stats = %+v, want 2 sims and 3 shared (60%% hit rate)", st)
	}
	for i, cfg := range cells {
		if res[i].Pressure != cfg.Pressure {
			t.Errorf("result %d carries pressure %d, want %d", i, res[i].Pressure, cfg.Pressure)
		}
	}
	if &res[2].Nodes[0] == &res[0].Nodes[0] {
		t.Error("a fill shares its source's Nodes")
	}
	// A later lookup of a filled cell is an ordinary hit on its own key.
	if _, err := r.Run(context.Background(), cells[2]); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.MemHits != 1 {
		t.Errorf("filled cell not filed under its own key: %+v", st)
	}
}

// TestRunAllFailureAfterFillsStopsDispatch: the first failure cancels the
// rest even in a grid with fills.
func TestRunAllFailureAfterFillsStopsDispatch(t *testing.T) {
	cache, err := New(16, "")
	if err != nil {
		t.Fatal(err)
	}
	cells := runAllCells(4, 8, 12, 14)
	cells[2].Workload = "no-such-workload"
	var finished []int
	res, err := (&Runner{Cache: cache, Jobs: 1}).RunAll(context.Background(), cells, func(i int, _ *ascoma.Result) {
		finished = append(finished, i)
	})
	if err == nil || res != nil {
		t.Fatalf("RunAll = %v, %v; want a failure", res, err)
	}
	if want := "no-such-workload AS-COMA(12%)"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name the failing cell %q", err, want)
	}
	if st := cache.Stats(); st.Sims != 1 || st.Shared != 1 || st.Errors != 1 || st.Lookups() != 3 {
		t.Errorf("stats = %+v, want 1 sim, 1 shared, 1 error and no later lookups", st)
	}
	if !reflect.DeepEqual(finished, []int{0, 1}) {
		t.Errorf("done called for %v, want [0 1]", finished)
	}
}

// TestScheduleDefersBusyGroups drives the scheduler with stand-in results:
// cells of a group with a run in flight wait while other groups' cells
// start; a finished run fills the cells its ceiling covers; and once only
// busy groups' cells remain, the highest pressure starts next.
func TestScheduleDefersBusyGroups(t *testing.T) {
	other := testCfg(50)
	other.Arch = ascoma.RNUMA
	cells := append(runAllCells(10, 30, 50, 70, 90), other)
	s := newSchedule(cells)
	claim := func(wantCell int, wantFill bool) {
		t.Helper()
		i, src := s.claim()
		if i != wantCell || (src != nil) != wantFill {
			t.Fatalf("claim = %d (fill %v), want %d (fill %v)", i, src != nil, wantCell, wantFill)
		}
	}
	claim(0, false) // AS-COMA@10 simulates
	claim(5, false) // AS-COMA@30..90 wait; R-NUMA starts
	claim(4, false) // only the busy group is left: its highest pressure
	s.finish(0, true, &ascoma.Result{PressureCeiling: 55})
	claim(1, true) // 30 and 50 are covered by the 10% run
	claim(2, true)
	claim(3, false) // 70 is not
	if i, _ := s.claim(); i != -1 {
		t.Fatalf("claim = %d after every cell was taken", i)
	}
}

func TestSharedCounterPublished(t *testing.T) {
	cache, err := New(4, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Runner{Cache: cache, Jobs: 1}).RunAll(context.Background(), runAllCells(4, 8), nil); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cache.Publish(reg)
	var text strings.Builder
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"\nascoma_runcache_shared_total 1\n", "\nascoma_runcache_sims_total 1\n"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("metrics missing %q:\n%s", want, text.String())
		}
	}
}
