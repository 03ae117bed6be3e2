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

// archCell is testCfg(pressure) on another architecture.
func archCell(arch ascoma.Arch, pressure int) ascoma.Config {
	cfg := testCfg(pressure)
	cfg.Arch = arch
	return cfg
}

// TestRunAllOneSlotOrderWithFills: on one slot, cells start in slice order
// even when some are filled from an earlier run, of the same architecture
// or of one it certifies, and the fills are counted as shared, not
// simulated.
func TestRunAllOneSlotOrderWithFills(t *testing.T) {
	cache, err := New(16, "")
	if err != nil {
		t.Fatal(err)
	}
	cells := runAllCells(4, 90, 8, 12, 6)
	cells[2].Arch, cells[4].Arch = ascoma.SCOMA, ascoma.SCOMA
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
	if res[0].PressureCeiling < 12 || !res[0].SameArchs.Has(ascoma.SCOMA) {
		t.Fatalf("AS-COMA@4 ceiling %d, same %08b; the test needs it to cover S-COMA and 12%%", res[0].PressureCeiling, res[0].SameArchs)
	}
	// AS-COMA@4 and @90 simulate; S-COMA@8, AS-COMA@12 and S-COMA@6
	// are filled from AS-COMA@4.
	if st := cache.Stats(); st.Sims != 2 || st.Shared != 3 || st.HitRate() != 0.6 {
		t.Errorf("stats = %+v, want 2 sims and 3 shared (60%% hit rate)", st)
	}
	for i, cfg := range cells {
		if res[i].Pressure != cfg.Pressure || res[i].Arch != cfg.Arch.String() || res[i].ArchID != cfg.Arch {
			t.Errorf("result %d carries %s/%v(%d%%), want %v(%d%%)", i, res[i].Arch, res[i].ArchID, res[i].Pressure, cfg.Arch, cfg.Pressure)
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

// claimer returns a helper that claims from s and checks the cell and
// whether it is a fill.
func claimer(t *testing.T, s *schedule) func(wantCell int, wantFill bool) {
	return func(wantCell int, wantFill bool) {
		t.Helper()
		i, src := s.claim()
		if i != wantCell || (src != nil) != wantFill {
			t.Fatalf("claim = %d (fill %v), want %d (fill %v)", i, src != nil, wantCell, wantFill)
		}
	}
}

// TestScheduleDefersBusyGroups drives the scheduler with stand-in results:
// cells that a run in flight could cover wait while other cells start; a
// finished run fills the cells of its own and its certified architectures
// that its ceiling covers, and those at its own pressure; and once only
// busy groups' cells remain, the highest pressure starts next.
func TestScheduleDefersBusyGroups(t *testing.T) {
	cells := append(runAllCells(10, 30, 50, 70, 90),
		archCell(ascoma.RNUMA, 50), archCell(ascoma.SCOMA, 30), archCell(ascoma.VCNUMA, 50))
	s := newSchedule(cells)
	claim := claimer(t, s)
	claim(0, false) // AS-COMA@10 simulates
	claim(5, false) // AS-COMA@30..90 wait; R-NUMA starts
	claim(4, false) // S-COMA@30 and VC-NUMA@50 wait too: the highest pressure starts
	s.finish(0, true, &ascoma.Result{PressureCeiling: 55, SameArchs: ascoma.ArchSet(0).With(ascoma.SCOMA)})
	claim(1, true) // AS-COMA@30 and @50 and S-COMA@30 are covered by AS-COMA@10
	claim(2, true)
	claim(6, true)
	claim(3, false) // AS-COMA@70 is not
	s.finish(5, true, &ascoma.Result{SameArchs: ascoma.ArchSet(0).With(ascoma.VCNUMA)})
	claim(7, true) // R-NUMA@50 certifies VC-NUMA at its own pressure, ceiling or not
	if i, _ := s.claim(); i != -1 {
		t.Fatalf("claim = %d after every cell was taken", i)
	}
}

// TestScheduleDefersOnlyKin: a run in flight defers the cells it could
// cover, those of architectures that map a first remote page as its own
// does, and no others. An in-flight S-COMA@10 defers AS-COMA@10, not
// VC-NUMA@10, and its certificate later fills AS-COMA@10.
func TestScheduleDefersOnlyKin(t *testing.T) {
	cells := []ascoma.Config{archCell(ascoma.SCOMA, 10), archCell(ascoma.ASCOMA, 10), archCell(ascoma.VCNUMA, 10)}
	s := newSchedule(cells)
	claim := claimer(t, s)
	claim(0, false) // S-COMA@10 simulates
	claim(2, false) // AS-COMA@10 waits; VC-NUMA@10 starts
	s.finish(0, true, &ascoma.Result{PressureCeiling: 10, SameArchs: ascoma.ArchSet(0).With(ascoma.ASCOMA)})
	claim(1, true)
	if i, _ := s.claim(); i != -1 {
		t.Fatalf("claim = %d after every cell was taken", i)
	}
}

// TestRunAllFillCarriesTargetArch: a cell filled from another
// architecture's run carries its own Arch label and ArchID, the source's
// ceiling, and the source's certificate relabelled to name the source, and
// it equals a direct run of the cell.
func TestRunAllFillCarriesTargetArch(t *testing.T) {
	cache, err := New(4, "")
	if err != nil {
		t.Fatal(err)
	}
	cells := []ascoma.Config{archCell(ascoma.SCOMA, 10), archCell(ascoma.ASCOMA, 10)}
	res, err := (&Runner{Cache: cache, Jobs: 1}).RunAll(context.Background(), cells, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Sims != 1 || st.Shared != 1 {
		t.Fatalf("stats = %+v, want AS-COMA@10 filled from S-COMA@10", st)
	}
	fill := res[1]
	if fill.Arch != "AS-COMA" || fill.ArchID != ascoma.ASCOMA {
		t.Errorf("fill labelled %s/%v, want AS-COMA", fill.Arch, fill.ArchID)
	}
	if fill.PressureCeiling != res[0].PressureCeiling || fill.SameArchs != ascoma.ArchSet(0).With(ascoma.SCOMA) {
		t.Errorf("fill certifies %d%% and %08b, want %d%% and %08b", fill.PressureCeiling, fill.SameArchs, res[0].PressureCeiling, ascoma.ArchSet(0).With(ascoma.SCOMA))
	}
	want, err := ascoma.Run(cells[1])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fill.Machine, want.Machine) {
		t.Error("fill differs from a direct run of AS-COMA@10")
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
