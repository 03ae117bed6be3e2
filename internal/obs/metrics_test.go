package obs

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeExposition(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("zz_total", "last family alphabetically")
	c.Add(41)
	c.Inc()
	g := reg.NewGauge("aa_depth", "first family")
	g.Set(2.5)
	g.Add(-1)
	reg.NewGaugeFunc("mm_ratio", "derived", func() float64 { return 0.75 })
	reg.NewCounterFunc("bb_lookups_total", "derived counter", func() int64 { return 9 })

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP zz_total last family alphabetically",
		"# TYPE zz_total counter",
		"zz_total 42",
		"# TYPE aa_depth gauge",
		"aa_depth 1.5",
		"mm_ratio 0.75",
		"bb_lookups_total 9",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families render sorted by name.
	if strings.Index(out, "aa_depth") > strings.Index(out, "zz_total") {
		t.Error("families not sorted by name")
	}
	// Two renders are identical (ordering is deterministic).
	var b2 strings.Builder
	reg.WriteText(&b2) //nolint:errcheck
	if b.String() != b2.String() {
		t.Error("exposition differs between renders")
	}
}

func TestCounterVec(t *testing.T) {
	reg := NewRegistry()
	v := reg.NewCounterVec("runs_total", "runs by arch", "arch")
	v.With("AS-COMA").Add(3)
	v.With("CC-NUMA").Inc()
	v.With("AS-COMA").Inc() // same series again

	var b strings.Builder
	reg.WriteText(&b) //nolint:errcheck
	out := b.String()
	if !strings.Contains(out, `runs_total{arch="AS-COMA"} 4`) ||
		!strings.Contains(out, `runs_total{arch="CC-NUMA"} 1`) {
		t.Fatalf("vec exposition:\n%s", out)
	}
	if strings.Index(out, `arch="AS-COMA"`) > strings.Index(out, `arch="CC-NUMA"`) {
		t.Error("vec series not sorted")
	}
}

func TestHistogram(t *testing.T) {
	reg := NewRegistry()
	h := reg.NewHistogram("run_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	var b strings.Builder
	reg.WriteText(&b) //nolint:errcheck
	out := b.String()
	for _, want := range []string{
		`run_seconds_bucket{le="0.1"} 1`,
		`run_seconds_bucket{le="1"} 3`,
		`run_seconds_bucket{le="10"} 4`,
		`run_seconds_bucket{le="+Inf"} 5`,
		"run_seconds_sum 56.05",
		"run_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("histogram missing %q:\n%s", want, out)
		}
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("dup_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	reg.NewGauge("dup_total", "")
}

func TestHandler(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("hits_total", "hits").Add(7)
	rr := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(rr.Body.String(), "hits_total 7") {
		t.Fatalf("body: %s", rr.Body.String())
	}
}

// TestMetricsRace drives every metric type from concurrent goroutines while
// a reader renders the exposition; `go test -race ./internal/...` in the
// verify gate gives this teeth.
func TestMetricsRace(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("c_total", "")
	g := reg.NewGauge("g", "")
	h := reg.NewHistogram("h_seconds", "", nil)
	v := reg.NewCounterVec("v_total", "", "k")
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(j) / 100)
				v.With([]string{"a", "b", "c", "d"}[i]).Inc()
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 50; j++ {
			var b strings.Builder
			reg.WriteText(&b) //nolint:errcheck
		}
	}()
	wg.Wait()
	if c.Value() != 2000 {
		t.Fatalf("counter = %d", c.Value())
	}
	if h.Count() != 2000 {
		t.Fatalf("histogram count = %d", h.Count())
	}
}
