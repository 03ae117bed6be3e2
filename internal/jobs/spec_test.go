package jobs

import (
	"reflect"
	"runtime"
	"testing"

	"ascoma"
	"ascoma/internal/report"
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

func TestGridCellsFigureDefault(t *testing.T) {
	// Empty archs/pressures expand to exactly the figure grid: one CC-NUMA
	// baseline plus the four adaptive architectures at every pressure, per
	// app — so a default grid job warms precisely what a figure render reads.
	g := GridSpec{Apps: []string{"uniform"}, Scale: 8}
	cells, err := g.cells(4096)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + 4*5; len(cells) != want {
		t.Fatalf("default grid has %d cells, want %d", len(cells), want)
	}
	if cells[0].Arch != ascoma.CCNUMA || cells[0].Pressure != 50 {
		t.Errorf("cell 0 is %v@%d, want the CC-NUMA@50 baseline", cells[0].Arch, cells[0].Pressure)
	}
	if cells[1].Arch != ascoma.SCOMA || cells[1].Pressure != 10 {
		t.Errorf("cell 1 is %v@%d", cells[1].Arch, cells[1].Pressure)
	}
	for _, c := range cells {
		if c.Scale != 8 || c.Workload != "uniform" {
			t.Fatalf("cell carries wrong knobs: %+v", c)
		}
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
