package obs

// The metrics registry: process-level counters, gauges, and histograms with
// Prometheus text exposition. Unlike the recorder and the epoch probes,
// these are concurrency-safe and wall-clock-adjacent — they instrument the
// service around the simulator (request counts, cache hit rates, run
// latencies), never the simulation itself.

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// A Counter is a monotonically increasing int64 metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta (which must be >= 0; counters never decrease).
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// A Gauge is a float64 metric that may go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// DefBuckets are the default histogram buckets (seconds), matching the
// Prometheus client defaults.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// A Histogram accumulates observations into cumulative buckets.
type Histogram struct {
	upper  []float64 // bucket upper bounds, ascending; +Inf implicit
	counts []atomic.Int64
	count  atomic.Int64
	sumMu  sync.Mutex
	sum    float64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	for i, ub := range h.upper {
		if v <= ub {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	h.sumMu.Lock()
	h.sum += v
	h.sumMu.Unlock()
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// metricKind is the exposition TYPE of a family.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one exposed time series inside a family.
type series struct {
	labels string // rendered `{name="value"}` suffix, "" for unlabeled
	value  func() string
	hist   *Histogram // non-nil for histogram families
}

// family is one named metric with its help text and series.
type family struct {
	name string
	help string
	kind metricKind

	mu     sync.Mutex
	series map[string]*series
}

func (f *family) add(labels string, s *series) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.series[labels] = s
}

// A Registry holds metric families and renders them in the Prometheus text
// exposition format. All methods are safe for concurrent use. Registering
// the same name twice panics — metric names are programmer constants.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) register(name, help string, kind metricKind) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic("obs: duplicate metric " + name)
	}
	f := &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
	r.families[name] = f
	return f
}

// NewCounter registers and returns an unlabeled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	f := r.register(name, help, kindCounter)
	f.add("", &series{value: func() string { return strconv.FormatInt(c.Value(), 10) }})
	return c
}

// NewCounterFunc registers a counter whose value is read from fn at
// exposition time (for counters owned elsewhere, e.g. cache statistics).
func (r *Registry) NewCounterFunc(name, help string, fn func() int64) {
	f := r.register(name, help, kindCounter)
	f.add("", &series{value: func() string { return strconv.FormatInt(fn(), 10) }})
}

// NewGauge registers and returns an unlabeled gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{}
	f := r.register(name, help, kindGauge)
	f.add("", &series{value: func() string { return formatFloat(g.Value()) }})
	return g
}

// NewGaugeFunc registers a gauge whose value is read from fn at exposition
// time.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, kindGauge)
	f.add("", &series{value: func() string { return formatFloat(fn()) }})
}

// NewHistogram registers and returns a histogram with the given ascending
// bucket upper bounds (nil selects DefBuckets).
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	h := &Histogram{upper: append([]float64(nil), buckets...), counts: make([]atomic.Int64, len(buckets))}
	f := r.register(name, help, kindHistogram)
	f.add("", &series{hist: h})
	return h
}

// A CounterVec is a counter family partitioned by one label. Series are
// created on first use and live for the registry's lifetime.
type CounterVec struct {
	f     *family
	label string

	mu sync.Mutex
	by map[string]*Counter
}

// NewCounterVec registers a counter family keyed by the given label name.
func (r *Registry) NewCounterVec(name, help, label string) *CounterVec {
	return &CounterVec{
		f:     r.register(name, help, kindCounter),
		label: label,
		by:    make(map[string]*Counter),
	}
}

// With returns the counter for one label value, creating it on first use.
func (v *CounterVec) With(value string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.by[value]; ok {
		return c
	}
	c := &Counter{}
	v.by[value] = c
	v.f.add(fmt.Sprintf("{%s=%q}", v.label, value),
		&series{labels: fmt.Sprintf("{%s=%q}", v.label, value), value: func() string { return strconv.FormatInt(c.Value(), 10) }})
	return c
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteText renders every family in the Prometheus text exposition format,
// families sorted by name and series by label suffix, so the output is
// stable across processes and runs.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	//ascoma:allow-nondet families are collected and sorted by name below
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		f.mu.Lock()
		keys := make([]string, 0, len(f.series))
		//ascoma:allow-nondet series keys are collected and sorted below
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			if s.hist != nil {
				writeHistogram(&b, f.name, s.hist)
				continue
			}
			fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labels, s.value())
		}
		f.mu.Unlock()
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeHistogram(b *strings.Builder, name string, h *Histogram) {
	var cum int64
	for i, ub := range h.upper {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, formatFloat(ub), cum)
	}
	count := h.count.Load()
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, count)
	h.sumMu.Lock()
	sum := h.sum
	h.sumMu.Unlock()
	fmt.Fprintf(b, "%s_sum %s\n%s_count %d\n", name, formatFloat(sum), name, count)
}

// Handler returns an http.Handler serving the registry's exposition — the
// GET /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteText(w) //ascoma:allow-errdrop client write failure is the client's problem
	})
}
