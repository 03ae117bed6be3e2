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
