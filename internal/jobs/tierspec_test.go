package jobs

import (
	"strings"
	"testing"
	"time"

	"ascoma"
	"ascoma/internal/runcache"
)

func twoTiers() []ascoma.TierSpec {
	return []ascoma.TierSpec{
		{CapacityPct: 30, ReadCycles: 40, WriteCycles: 60},
		{CapacityPct: 70, ReadCycles: 120, WriteCycles: 300},
	}
}

func TestRunSpecTierValidation(t *testing.T) {
	good := RunSpec{Arch: "AS-COMA", Workload: "uniform", Pressure: 70, Scale: 8,
		Tiers: twoTiers(), PagePolicy: "hybrid"}
	cfg, err := good.Config(1)
	if err != nil {
		t.Fatalf("valid tiered spec rejected: %v", err)
	}
	if len(cfg.Tiers) != 2 || cfg.PagePolicy != "hybrid" {
		t.Fatalf("tier fields not threaded into Config: %+v", cfg)
	}
	for name, mut := range map[string]func(*RunSpec){
		"non-positive capacity": func(r *RunSpec) { r.Tiers[0].CapacityPct = 0; r.Tiers[1].CapacityPct = 100 },
		"capacities not 100":    func(r *RunSpec) { r.Tiers[1].CapacityPct = 60 },
		"zero read latency":     func(r *RunSpec) { r.Tiers[0].ReadCycles = 0 },
		"negative write":        func(r *RunSpec) { r.Tiers[1].WriteCycles = -1 },
		"unknown policy":        func(r *RunSpec) { r.PagePolicy = "lru" },
	} {
		r := good
		r.Tiers = twoTiers()
		mut(&r)
		_, err := r.Config(1)
		if err == nil {
			t.Errorf("%s: accepted", name)
		} else if !IsValidation(err) {
			t.Errorf("%s: error %v is not a ValidationError", name, err)
		}
	}
}

func TestGridSpecTierValidation(t *testing.T) {
	g := GridSpec{Apps: []string{"uniform"}, Scale: 8, Tiers: twoTiers(), PagePolicy: "open"}
	cells, err := g.cells(1, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if len(c.Tiers) != 2 || c.PagePolicy != "open" {
			t.Fatalf("grid cell missing tier config: %+v", c)
		}
	}
	g.PagePolicy = "fifo"
	if _, err := g.cells(1, 4096); err == nil || !IsValidation(err) {
		t.Errorf("unknown grid policy: %v, want validation error", err)
	}
}

func TestFigureSpecTierValidation(t *testing.T) {
	f := FigureSpec{App: "uniform", Scale: 8, Tiers: twoTiers(), PagePolicy: "closed"}
	opts, err := f.ReportOptions(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(opts.Tiers) != 2 || opts.PagePolicy != "closed" {
		t.Fatalf("tier fields not threaded into report.Options: %+v", opts)
	}
	f.Tiers[0].CapacityPct = -5
	if _, err := f.ReportOptions(nil, 1); err == nil || !IsValidation(err) {
		t.Errorf("negative capacity: %v, want validation error", err)
	}
}

func TestTierGridSpecValidation(t *testing.T) {
	good := TierGridSpec{App: "uniform", Scale: 16, Pressures: []int{70},
		FastShares: []int{50}, Asymmetries: []int{4}, PagePolicy: "open"}
	if err := good.validate(); err != nil {
		t.Fatalf("valid tier-grid spec rejected: %v", err)
	}
	if got := good.cellCount(); got != 6*1*(1+1) {
		t.Errorf("cellCount = %d, want 12", got)
	}
	if got := (TierGridSpec{App: "uniform"}).cellCount(); got != 6*5*(1+9) {
		t.Errorf("default cellCount = %d, want 300", got)
	}
	for name, mut := range map[string]func(*TierGridSpec){
		"unknown app":    func(s *TierGridSpec) { s.App = "nonexistent" },
		"chart format":   func(s *TierGridSpec) { s.Format = "chart" },
		"share 0":        func(s *TierGridSpec) { s.FastShares = []int{0} },
		"share 100":      func(s *TierGridSpec) { s.FastShares = []int{100} },
		"asymmetry 0":    func(s *TierGridSpec) { s.Asymmetries = []int{0} },
		"absurd axis":    func(s *TierGridSpec) { s.FastShares = make([]int, maxTierAxis+1) },
		"unknown policy": func(s *TierGridSpec) { s.PagePolicy = "rr" },
		"pressure 0":     func(s *TierGridSpec) { s.Pressures = []int{0} },
		"negative scale": func(s *TierGridSpec) { s.Scale = -1 },
	} {
		s := good
		mut(&s)
		if err := s.validate(); err == nil {
			t.Errorf("%s: accepted", name)
		} else if !IsValidation(err) {
			t.Errorf("%s: error %v is not a ValidationError", name, err)
		}
	}
}

func TestSpecShapeTierGrid(t *testing.T) {
	s := Spec{TierGrid: &TierGridSpec{App: "uniform"}}
	if err := s.validateShape(); err != nil {
		t.Fatal(err)
	}
	if got := s.Kind(); got != "tiergrid" {
		t.Errorf("kind = %q", got)
	}
	two := Spec{Run: &RunSpec{}, TierGrid: &TierGridSpec{}}
	if err := two.validateShape(); err == nil {
		t.Error("run+tierGrid spec accepted")
	}
}

func TestEstimateSpecTiers(t *testing.T) {
	flat := EstimateSpec{Workload: "uniform", Scale: 8, Pressures: []int{70}}
	fp, err := flat.Predictions()
	if err != nil {
		t.Fatal(err)
	}
	tiered := flat
	tiered.Tiers = []ascoma.TierSpec{
		{CapacityPct: 25, ReadCycles: 50, WriteCycles: 50},
		{CapacityPct: 75, ReadCycles: 400, WriteCycles: 800},
	}
	tp, err := tiered.Predictions()
	if err != nil {
		t.Fatal(err)
	}
	if len(tp) != len(fp) {
		t.Fatalf("prediction counts differ: %d vs %d", len(tp), len(fp))
	}
	raised := false
	for i := range tp {
		if tp[i].ExecTime > fp[i].ExecTime {
			raised = true
		}
	}
	if !raised {
		t.Error("slow tiers raised no prediction")
	}
	tiered.PagePolicy = "plru"
	if _, err := tiered.Predictions(); err == nil || !IsValidation(err) {
		t.Errorf("unknown estimate policy: %v, want validation error", err)
	}
}

func TestTierGridJob(t *testing.T) {
	m := NewManager(&runcache.Runner{Jobs: 4}, Options{Cores: 1})
	defer m.Close()
	j, err := m.Submit(Spec{TierGrid: &TierGridSpec{
		App: "uniform", Scale: 16, Pressures: []int{70},
		FastShares: []int{50}, Asymmetries: []int{4},
	}})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if _, terminal := j.Events(0); terminal {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("tiergrid job did not finish; status %+v", j.Status())
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := j.Status()
	if st.State != StateDone {
		t.Fatalf("tiergrid job ended %s: %s", st.State, st.Error)
	}
	doc, ok := st.Result.(string)
	if !ok {
		t.Fatalf("result is %T, want string", st.Result)
	}
	for _, want := range []string{"tiered-memory grid at 70% pressure", "fast 50% / slow x4", "AS-COMA"} {
		if !strings.Contains(doc, want) {
			t.Errorf("tiergrid document missing %q", want)
		}
	}
}

func TestTierGridJobDuplicateAxes(t *testing.T) {
	m := NewManager(&runcache.Runner{Jobs: 4}, Options{Cores: 1})
	defer m.Close()
	j, err := m.Submit(Spec{TierGrid: &TierGridSpec{
		App: "uniform", Scale: 16, Pressures: []int{70, 70},
		FastShares: []int{50, 50}, Asymmetries: []int{4, 4},
	}})
	if err != nil {
		t.Fatal(err)
	}
	// One pressure, one flat baseline plus one tiered cell, six archs.
	const want = 6 * 1 * (1 + 1)
	if got := j.Status().CellsTotal; got != want {
		t.Errorf("admitted CellsTotal = %d, want %d", got, want)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if _, terminal := j.Events(0); terminal {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("tiergrid job did not finish; status %+v", j.Status())
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := j.Status()
	if st.State != StateDone {
		t.Fatalf("tiergrid job ended %s: %s", st.State, st.Error)
	}
	if st.CellsDone != want || st.CellsTotal != want {
		t.Errorf("finished at %d of %d cells, want %d of %d", st.CellsDone, st.CellsTotal, want, want)
	}
	if doc, _ := st.Result.(string); strings.Count(doc, "fast 50% / slow x4") != 1 {
		t.Errorf("duplicate axes printed the row more than once\n%s", doc)
	}
}
