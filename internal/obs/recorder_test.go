package obs

import (
	"testing"
)

func TestRecorderOrderAndWrap(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 3; i++ {
		r.Clock = int64(10 * i)
		r.Emit(EvUpgrade, i, uint32(i), 0)
	}
	if r.Len() != 3 || r.Total() != 3 {
		t.Fatalf("len=%d total=%d, want 3/3", r.Len(), r.Total())
	}
	evs := r.Events()
	for i, ev := range evs {
		if ev.Time != int64(10*i) || int(ev.Node) != i {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}

	// Six more events wrap the ring; the last four survive, oldest first.
	for i := 3; i < 9; i++ {
		r.Clock = int64(10 * i)
		r.Emit(EvDowngrade, i%4, uint32(i), 0)
	}
	if r.Len() != 4 || r.Total() != 9 {
		t.Fatalf("after wrap: len=%d total=%d, want 4/9", r.Len(), r.Total())
	}
	evs = r.Events()
	for i, ev := range evs {
		want := int64(10 * (5 + i))
		if ev.Time != want {
			t.Fatalf("wrapped event %d time=%d want %d", i, ev.Time, want)
		}
	}

	r.Reset()
	if r.Len() != 0 || r.Total() != 0 || r.Clock != 0 {
		t.Fatalf("reset left state: %+v", r)
	}
	if r.Cap() != 4 {
		t.Fatalf("reset changed capacity: %d", r.Cap())
	}
}

func TestRecorderDefaultCap(t *testing.T) {
	if got := NewRecorder(0).Cap(); got != DefaultEventCap {
		t.Fatalf("default cap = %d, want %d", got, DefaultEventCap)
	}
}

// TestEmitZeroAlloc pins the recorder's zero-allocation contract: the
// machine step loop emits behind a single nil-check, so Emit itself must
// never touch the heap. TestHotPathAllocs pins the same property over
// whole observed runs.
func TestEmitZeroAlloc(t *testing.T) {
	r := NewRecorder(1024)
	allocs := testing.AllocsPerRun(1000, func() {
		r.Clock++
		r.Emit(EvDaemonWake, 3, 42, 7)
	})
	if allocs != 0 {
		t.Fatalf("Emit allocates %.1f times per call, want 0", allocs)
	}
}

func BenchmarkEmit(b *testing.B) {
	r := NewRecorder(1 << 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Clock = int64(i)
		r.Emit(EvUpgrade, i&7, uint32(i), uint32(i>>8))
	}
}

func TestKindStrings(t *testing.T) {
	for k := Kind(1); k < Kind(NumKinds()); k++ {
		if k.String() == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if Kind(0).String() != "unknown" || Kind(200).String() != "unknown" {
		t.Error("out-of-range kinds must render as unknown")
	}
	for p := Probe(0); p < NumProbes; p++ {
		if p.String() == "unknown" {
			t.Errorf("probe %d has no name", p)
		}
	}
}

func TestEpochsLayout(t *testing.T) {
	e := NewEpochs(500)
	e.SetNodes(2)
	e.Begin(500)
	e.Set(ProbeFreePages, 0, 10)
	e.Set(ProbeFreePages, 1, 20)
	e.Set(ProbeThreshold, 0, 64)
	e.Begin(1000)
	e.Set(ProbeFreePages, 0, 9)
	e.Set(ProbeFreePages, 1, 21)
	e.Set(ProbeThreshold, 0, 32)

	if e.Len() != 2 || e.Nodes() != 2 {
		t.Fatalf("len=%d nodes=%d", e.Len(), e.Nodes())
	}
	if e.Time(0) != 500 || e.Time(1) != 1000 {
		t.Fatalf("times: %d %d", e.Time(0), e.Time(1))
	}
	if got := e.Value(ProbeFreePages, 1, 1); got != 21 {
		t.Fatalf("value(free,1,1)=%d", got)
	}
	series := e.Series(ProbeThreshold, 0)
	if len(series) != 2 || series[0] != 64 || series[1] != 32 {
		t.Fatalf("series = %v", series)
	}
	// Unset cells default to zero.
	if got := e.Value(ProbeUpgrades, 0, 1); got != 0 {
		t.Fatalf("unset cell = %d", got)
	}

	// SetNodes resets samples but keeps interval.
	e.SetNodes(4)
	if e.Len() != 0 || e.Interval != 500 {
		t.Fatalf("after SetNodes: len=%d interval=%d", e.Len(), e.Interval)
	}
}

func TestSparkline(t *testing.T) {
	if s := Sparkline(nil, 10); s != "" {
		t.Fatalf("empty series: %q", s)
	}
	if s := Sparkline([]int64{5, 5, 5}, 10); s != "▁▁▁" {
		t.Fatalf("flat series: %q", s)
	}
	s := Sparkline([]int64{0, 7}, 10)
	if s != "▁█" {
		t.Fatalf("ramp: %q", s)
	}
	// Longer than width: bucketed down to exactly width columns.
	long := make([]int64, 100)
	for i := range long {
		long[i] = int64(i)
	}
	if got := len([]rune(Sparkline(long, 20))); got != 20 {
		t.Fatalf("bucketed width = %d, want 20", got)
	}
}
