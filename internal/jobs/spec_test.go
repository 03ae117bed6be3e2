package jobs

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"ascoma"
	"ascoma/internal/report"
	"ascoma/internal/runcache"
)

func TestRunSpecValidation(t *testing.T) {
	good := RunSpec{Arch: "AS-COMA", Workload: "uniform", Pressure: 70, Scale: 8}
	if _, err := good.Config(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	for name, mut := range map[string]func(*RunSpec){
		"unknown arch":           func(r *RunSpec) { r.Arch = "NOPE" },
		"unknown workload":       func(r *RunSpec) { r.Workload = "nonexistent" },
		"pressure low":           func(r *RunSpec) { r.Pressure = 0 },
		"pressure high":          func(r *RunSpec) { r.Pressure = 100 },
		"negative scale":         func(r *RunSpec) { r.Scale = -1 },
		"absurd scale":           func(r *RunSpec) { r.Scale = MaxScale + 1 },
		"negative maxCycles":     func(r *RunSpec) { r.MaxCycles = -1 },
		"absurd maxCycles":       func(r *RunSpec) { r.MaxCycles = MaxCycleBound + 1 },
		"negative sample":        func(r *RunSpec) { r.SampleInterval = -1 },
		"sub-quantum sample":     func(r *RunSpec) { r.SampleInterval = MinInterval - 1 },
		"sub-quantum epoch":      func(r *RunSpec) { r.EpochInterval = 1 },
		"negative epochInterval": func(r *RunSpec) { r.EpochInterval = -5 },
	} {
		r := good
		mut(&r)
		_, err := r.Config()
		if err == nil {
			t.Errorf("%s: accepted", name)
		} else if !IsValidation(err) {
			t.Errorf("%s: error %v is not a ValidationError", name, err)
		}
	}
}

// TestGridCellsFigureDefault: empty archs expand each app to exactly
// report.FigureCells, so a default grid job warms precisely what a figure
// render reads; the job's MaxCycles rides on every cell.
func TestGridCellsFigureDefault(t *testing.T) {
	g := GridSpec{Apps: []string{"uniform", "radix"}, Pressures: []int{90, 10, 90}, Scale: 8, MaxCycles: 1 << 40}
	cells, err := g.cells(4096)
	if err != nil {
		t.Fatal(err)
	}
	var want []ascoma.Config
	for _, app := range g.Apps {
		for _, c := range report.FigureCells(app, g.Scale, g.Pressures) {
			c.MaxCycles = g.MaxCycles
			want = append(want, c)
		}
	}
	if !reflect.DeepEqual(cells, want) {
		t.Fatalf("default grid expands to\n%+v\nwant report.FigureCells per app\n%+v", cells, want)
	}
	// No apps and no pressures: the six figure apps over the default axis.
	cells, err = GridSpec{Scale: 8}.cells(4096)
	if err != nil {
		t.Fatal(err)
	}
	want = nil
	for _, app := range report.FigureApps(0) {
		want = append(want, report.FigureCells(app, 8, nil)...)
	}
	if !reflect.DeepEqual(cells, want) {
		t.Fatalf("empty grid spec expands to %d cells, want the %d of the six figure grids", len(cells), len(want))
	}
}

// TestFigureJobCellsTotal: a figure job reports its grid's cell count
// while still queued, before any cell has run, and finishes every cell.
func TestFigureJobCellsTotal(t *testing.T) {
	m := NewManager(&runcache.Runner{Jobs: 1}, Options{MaxActive: 1})
	defer m.Close()
	m.slots <- struct{}{} // hold the one active slot: the job stays queued
	fig := FigureSpec{App: "uniform", Scale: 32, Pressures: []int{90, 10}}
	j, err := m.Submit(Spec{Figure: &fig})
	if err != nil {
		t.Fatal(err)
	}
	want := len(report.FigureCells(fig.App, fig.Scale, fig.Pressures))
	if st := j.Status(); st.State != StateQueued || st.CellsTotal != want || st.CellsDone != 0 {
		t.Fatalf("queued figure job: state %s, cells %d/%d; want queued, 0/%d", st.State, st.CellsDone, st.CellsTotal, want)
	}
	<-m.slots
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if _, terminal := j.Events(0); terminal {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("figure job did not finish; status %+v", j.Status())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := j.Status(); st.State != StateDone || st.CellsTotal != want || st.CellsDone != want {
		t.Fatalf("finished figure job: state %s (%s), cells %d/%d; want done, %d/%d", st.State, st.Error, st.CellsDone, st.CellsTotal, want, want)
	}
}

func TestGridCellsDeterministicOrder(t *testing.T) {
	g := GridSpec{
		Apps:      []string{"uniform", "radix"},
		Archs:     []string{"AS-COMA", "S-COMA"},
		Pressures: []int{90, 10, 90}, // unsorted, with a duplicate
		Scale:     8,
	}
	cells, err := g.cells(4096)
	if err != nil {
		t.Fatal(err)
	}
	var got []struct {
		app  string
		arch ascoma.Arch
		p    int
	}
	for _, c := range cells {
		got = append(got, struct {
			app  string
			arch ascoma.Arch
			p    int
		}{c.Workload, c.Arch, c.Pressure})
	}
	want := got[:0:0]
	for _, app := range []string{"uniform", "radix"} {
		for _, arch := range []ascoma.Arch{ascoma.ASCOMA, ascoma.SCOMA} {
			for _, p := range []int{10, 90} {
				want = append(want, struct {
					app  string
					arch ascoma.Arch
					p    int
				}{app, arch, p})
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cell order:\n got %v\nwant %v", got, want)
	}
}

func TestGridCellsBound(t *testing.T) {
	g := GridSpec{Apps: []string{"uniform"}, Scale: 8}
	if _, err := g.cells(3); err == nil || !IsValidation(err) {
		t.Errorf("oversize grid: %v, want validation error", err)
	}
	// The bound is checked before expanding: an oversize grid is rejected
	// without building its 63,000 configs.
	many := GridSpec{Apps: make([]string, 3000), Scale: 8}
	for i := range many.Apps {
		many.Apps[i] = "lu"
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := many.cells(4096)
	runtime.ReadMemStats(&after)
	if !IsValidation(err) {
		t.Errorf("3000-app grid: %v, want validation error", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("rejecting an oversize grid allocated %d bytes", grew)
	}
}

func TestSpecShape(t *testing.T) {
	if err := (Spec{}).validateShape(); err == nil {
		t.Error("empty spec accepted")
	}
	two := Spec{Run: &RunSpec{}, Grid: &GridSpec{}}
	if err := two.validateShape(); err == nil {
		t.Error("two-armed spec accepted")
	}
	one := Spec{Figure: &FigureSpec{App: "uniform"}}
	if err := one.validateShape(); err != nil {
		t.Error(err)
	}
	if got := one.Kind(); got != "figure" {
		t.Errorf("kind = %q", got)
	}
}

func TestDedupeSorted(t *testing.T) {
	got := report.DedupeAxis([]int{90, 10, 50, 10, 90})
	if !reflect.DeepEqual(got, []int{10, 50, 90}) {
		t.Errorf("DedupeAxis = %v", got)
	}
	if got := report.DedupeAxis(nil); len(got) != 0 {
		t.Errorf("DedupeAxis(nil) = %v", got)
	}
	if got := report.PressureAxis(nil); !reflect.DeepEqual(got, report.DefaultPressures) {
		t.Errorf("PressureAxis(nil) = %v", got)
	}
}
