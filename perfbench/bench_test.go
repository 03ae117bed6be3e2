package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"runtime/pprof"
	"slices"
	"testing"
	"time"

	"ascoma"
	"ascoma/internal/report"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got, ok := median(c.in); !ok || got != c.want {
			t.Errorf("median(%v) = %v, %v; want %v", c.in, got, ok, c.want)
		}
	}
	if _, ok := median(nil); ok {
		t.Error("median of no samples reported")
	}
}

// A tail percentile needs at least ten samples ranked above it: p90 from
// 100 samples, p99 from 1000; one sample fewer and it is withheld.
func TestPercentileSampleCounts(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: percentile must sort
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{99, 0.90, false, 0},
		{100, 0.90, true, 90},
		{999, 0.99, false, 0},
		{1000, 0.99, true, 990},
		{1, 0.5, true, 1},
		{0, 0.5, false, 0},
	} {
		got, ok := percentile(ramp(c.n), c.q)
		if ok != c.ok || got != c.want {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	ms := time.Millisecond
	s := &spans{list: []span{
		{name: "pass", parent: -1, start: 0, end: 100 * ms},
		{name: "a", parent: 0, start: 10 * ms, end: 30 * ms},
		{name: "b", parent: 0, start: 20 * ms, end: 50 * ms},  // overlaps a
		{name: "c", parent: 0, start: 90 * ms, end: 120 * ms}, // clipped at the parent's end
		{name: "d", parent: 2, start: 25 * ms, end: 35 * ms},  // grandchild: charged to b only
	}}
	got := s.selfTimes()
	want := []time.Duration{50 * ms, 20 * ms, 20 * ms, 30 * ms, 10 * ms}
	if !slices.Equal(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	var nilSpans *spans
	nilSpans.end(nilSpans.begin("x", -1)) // untraced recording is a no-op
	if d := nilSpans.durations("x"); d != nil {
		t.Errorf("nil recorder kept spans: %v", d)
	}
}

func TestGroupOf(t *testing.T) {
	for fn, want := range map[string]string{
		"ascoma/internal/machine.(*Machine).runNode":               "machine",
		"ascoma/internal/par.(*Queue).worker":                      "machine",
		"ascoma.RunGeneratorContext":                               "machine",
		"ascoma/internal/sim.(*Queue).Pop":                         "sim",
		"ascoma/internal/cache.(*L1).Lookup":                       "cache",
		"ascoma/internal/addr.PageIndex":                           "dense",
		"ascoma/internal/dense.(*Table[go.shape.int32]).Get":       "dense",
		"ascoma/internal/jobs.EstimateSpec.Predictions":            "serve",
		"ascoma/internal/model.Predict":                            "estimate",
		"runtime.scanobject":                                       "gc",
		"runtime.(*gcWork).tryGet":                                 "gc",
		"runtime.gcBgMarkWorker":                                   "gc",
		"runtime.mallocgc":                                         "stdlib",
		"runtime.(*mheap).alloc":                                   "stdlib",
		"encoding/json.(*encodeState).marshal":                     "stdlib",
		"slices.SortFunc[go.shape.struct { ascoma/internal/x.T }]": "stdlib",
		"vendor/golang.org/x/net/http2/hpack.(*Decoder).Write":     "stdlib",
		"main.run":                            "other",
		"ascoma/perfbench.burn":               "other",
		"ascoma/internal/analysis.Run":        "other",
		"github.com/x/y.F":                    "other",
		"type:.eq.ascoma/internal/stats.Node": "other",
		"":                                    "other",
	} {
		if got := groupOf(fn); got != want {
			t.Errorf("groupOf(%q) = %q, want %q", fn, got, want)
		}
	}
	for pkg, g := range layerOf {
		if !slices.Contains(cpuGroups, g) {
			t.Errorf("layerOf[%q] = %q is not a reported group", pkg, g)
		}
	}
}

var sink uint64

// burn spins in this package's own code; the state stays in a local so
// the race detector adds no runtime calls to the loop.
func burn(d time.Duration) {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 100000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	sink = x
}

// cpuShares reads a real runtime/pprof profile: time spent in this test's
// own busy loop lands in cpu.other and the shares add up to 100.
func TestCPUSharesFromProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	burn(400 * time.Millisecond)
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, g := range cpuGroups {
		sum += shares[g]
	}
	if len(shares) != len(cpuGroups) || sum < 99.9 || sum > 100.1 {
		t.Errorf("shares %v sum to %v over %d groups", shares, sum, len(shares))
	}
	if shares["other"] < 50 {
		t.Errorf("busy loop in the benchmark's own package got %.1f%% in cpu.other", shares["other"])
	}
}

// parseTop keeps whole function names, spaces included, and folds an
// inlined frame's flat time onto its function.
func TestParseTop(t *testing.T) {
	top := `File: perfbench
Type: cpu
Showing nodes accounting for 60000000ns, 100% of 60000000ns total
      flat  flat%   sum%        cum   cum%
30000000ns 50.00% 50.00% 30000000ns 50.00%  slices.SortFunc[go.shape.struct { ascoma/internal/x.T }]
20000000ns 33.33% 83.33% 20000000ns 33.33%  ascoma/internal/cache.(*L1).Lookup (inline)
10000000ns 16.67%   100% 50000000ns 83.33%  ascoma/internal/cache.(*L1).Lookup
         0     0%   100% 60000000ns   100%  main.main
`
	got, err := parseTop([]byte(top))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"slices.SortFunc[go.shape.struct { ascoma/internal/x.T }]": 30e6,
		"ascoma/internal/cache.(*L1).Lookup":                       30e6,
		"main.main":                                                0,
	}
	if len(got) != len(want) {
		t.Fatalf("parseTop = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("parseTop[%q] = %v, want %v", k, got[k], v)
		}
	}
	if _, err := parseTop([]byte("no table")); err == nil {
		t.Error("output without a table parsed")
	}
}

// A run whose statistics do not match the pin is a failed operation, and
// the run is still timed.
func TestChecksumMismatchCountsAsFailure(t *testing.T) {
	cfg := ascoma.Config{Arch: ascoma.ASCOMA, Workload: "fft", Pressure: 50, Scale: 64}
	res, err := ascoma.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	good := pins{cfgKey(cfg): statsChecksum(res.Machine)}
	bad := pins{cfgKey(cfg): "0123456789abcdef"}
	for _, c := range []struct {
		p          pins
		wantFailed int64
	}{{good, 0}, {bad, 2}, {pins{}, 2}} {
		r := &runs{cfg: cfg, perPass: 2, pins: c.p}
		ph := &phase{}
		if _, err := r.pass(ph); err != nil {
			t.Fatal(err)
		}
		if a, f := ph.counts(); a != 2 || f != c.wantFailed || len(ph.ops) != 2 {
			t.Errorf("pins %v: attempted %d failed %d ops %d; want 2, %d, 2", c.p, a, f, len(ph.ops), c.wantFailed)
		}
	}
}

func TestPinsAgreeWithGolden(t *testing.T) {
	p, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("../" + goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.agreeWithGolden(golden); err != nil {
		t.Fatal(err)
	}
	var g map[string]string
	if err := json.Unmarshal(golden, &g); err != nil {
		t.Fatal(err)
	}
	g["AS-COMA/radix@70"] = "0000000000000000"
	tampered, _ := json.Marshal(g)
	if err := p.agreeWithGolden(tampered); err == nil {
		t.Error("a pin disagreeing with the golden matrix was accepted")
	}
	for _, cfg := range append([]ascoma.Config{thrashCfg, residentCfg}, servePool()...) {
		if _, ok := p[cfgKey(cfg)]; !ok {
			t.Errorf("%s is not pinned", cfgKey(cfg))
		}
	}
}

func TestServeSequence(t *testing.T) {
	a, b, c := serveSequence(7), serveSequence(7), serveSequence(8)
	same := func(x, y []request) bool {
		return slices.EqualFunc(x, y, func(p, q request) bool { return p.kind == q.kind && bytes.Equal(p.body, q.body) })
	}
	if !same(a, b) {
		t.Error("one seed drew two sequences")
	}
	if same(a, c) {
		t.Error("two seeds drew one sequence")
	}
	pool := servePool()
	sent := map[string]bool{}
	count := map[string]int{}
	for i, r := range a {
		count[r.kind]++
		switch r.kind {
		case kindRunMiss:
			if sent[cfgKey(r.cfg)] {
				t.Errorf("request %d: fresh run of a config already sent", i)
			}
			sent[cfgKey(r.cfg)] = true
			if !slices.ContainsFunc(pool, func(c ascoma.Config) bool { return cfgKey(c) == cfgKey(r.cfg) }) {
				t.Errorf("request %d: %s is outside the pinned pool", i, cfgKey(r.cfg))
			}
		case kindRunHit:
			if !sent[cfgKey(r.cfg)] {
				t.Errorf("request %d: repeat of a config not sent before", i)
			}
		}
	}
	runs := len(report.FigureApps(0)) * len(ascoma.Archs())
	if count[kindRunMiss] != runs || count[kindRunHit] != runs || count[kindEstimate] != 2*estimatesPerRun*runs {
		t.Errorf("request mix %v", count)
	}
}

// BENCHMARK.json lists exactly the metrics the summary line prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []def) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics listed, %d printed", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit || got[i].Better != d.better {
				t.Errorf("%s[%d] = %+v, printed as %+v", kind, i, got[i], d)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndDefs)
	check("per_layer", b.PerLayer, perLayerDefs())
	for _, w := range b.Workloads {
		if _, err := newWorkload(w.Name, 1, nil); err != nil {
			t.Error(err)
		}
	}
}

// One serve pass end to end: every reply is checked against the in-process
// output, and a reply that differs from it counts as a failure.
func TestServePassChecksReplies(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the serve workload's configs")
	}
	p, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	s := newServeLoad(3, p)
	defer s.close()
	if err := s.setup(nil); err != nil {
		t.Fatal(err)
	}
	if err := s.prepare(); err != nil {
		t.Fatal(err)
	}
	ph, err := measure(s, 0, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a, f := ph.counts(); a != int64(len(s.reqs)) || f != 0 {
		t.Fatalf("clean pass: attempted %d failed %d, want %d, 0", a, f, len(s.reqs))
	}
	if ph.rc.HitRate() != 0.5 {
		t.Errorf("result cache hit ratio %v, want the sequence's repeat share 0.5", ph.rc.HitRate())
	}

	// Corrupt the expected output of one run config: every request for it
	// must now fail, and nothing else.
	var key string
	for _, r := range s.reqs {
		if r.kind == kindRunMiss {
			key = cfgKey(r.cfg)
			break
		}
	}
	s.wrong[key] = errors.New("tampered pin")
	want := int64(0)
	for _, r := range s.reqs {
		if r.kind != kindEstimate && cfgKey(r.cfg) == key {
			want++
		}
	}
	ph, err = measure(s, 0, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, f := ph.counts(); f != want {
		t.Errorf("tampered pin: %d failed, want %d", f, want)
	}
}

func TestSpansByName(t *testing.T) {
	ms := time.Millisecond
	s := &spans{list: []span{
		{name: "op", parent: -1, start: 0, end: 10 * ms},
		{name: "machine.New", parent: 0, start: 1 * ms, end: 3 * ms},
		{name: "op", parent: -1, start: 10 * ms, end: 30 * ms},
		{name: "machine.New", parent: 2, start: 10 * ms, end: 14 * ms},
	}}
	got := s.byName()
	want := map[string]spanTotals{
		"op":          {N: 2, TotalMS: 30, SelfMS: 24},
		"machine.New": {N: 2, TotalMS: 6, SelfMS: 6},
	}
	if len(got) != len(want) || got["op"] != want["op"] || got["machine.New"] != want["machine.New"] {
		t.Errorf("byName() = %v, want %v", got, want)
	}
}
