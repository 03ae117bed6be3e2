package machine

import (
	"bytes"
	"encoding/json"
	"testing"

	"ascoma/internal/params"
	"ascoma/internal/stats"
	"ascoma/internal/workload"
)

// runStats builds and runs one machine and returns its marshaled stats,
// with the workload name blanked so a generator run and its recorded-trace
// twin (which Record renames) compare equal on the numbers alone.
func runStats(t *testing.T, cfg Config, gen workload.Generator) []byte {
	t.Helper()
	m, err := New(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	st.Workload = ""
	buf, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestFastForwardExactness runs the same workloads twice — once from the
// generator's chunk-compiled streams (fast-forward active) and once from a
// recorded trace whose streams are not Chunked (interpretive path only) —
// and requires byte-identical statistics. Quantum 1 stops fast-forward at
// every reference (each one straddles the deadline); quantum 3 lands
// boundaries mid-chunk at awkward phases; the default quantum exercises
// long hit runs. Tiny daemon intervals force the daemon-deadline bound, and
// critsec puts lock/unlock refs mid-chunk.
func TestFastForwardExactness(t *testing.T) {
	apps := []string{"fft", "critsec", "uniform"}
	if !testing.Short() {
		apps = append(apps, "radix", "barnes")
	}
	archs := []params.Arch{params.ASCOMA, params.CCNUMA, params.SCOMA}
	quanta := []int64{1, 3, 100}
	for _, app := range apps {
		gen, err := workload.New(app, 8)
		if err != nil {
			t.Fatal(err)
		}
		trace := workload.Record(gen)
		if _, chunked := trace.Stream(0).(workload.Chunked); chunked {
			t.Fatal("trace streams implement Chunked; the test no longer isolates the interpretive path")
		}
		for _, arch := range archs {
			for _, q := range quanta {
				cfg := Config{Arch: arch, Pressure: 50, Quantum: q, MaxCycles: 1 << 40}
				fast := runStats(t, cfg, gen)
				slow := runStats(t, cfg, trace)
				if !bytes.Equal(fast, slow) {
					t.Errorf("%s/%v quantum=%d: fast-forward stats diverge from interpretive run\nfast: %s\nslow: %s",
						app, arch, q, fast, slow)
				}
			}
		}
		// Daemon-deadline edge: wake the pageout daemon every few cycles so
		// fast-forward constantly runs into nextDaemon mid-chunk.
		p := params.Default()
		p.DaemonInterval = 7
		cfg := Config{Arch: params.ASCOMA, Pressure: 50, Params: p, Quantum: 100, MaxCycles: 1 << 40}
		fast := runStats(t, cfg, gen)
		slow := runStats(t, cfg, trace)
		if !bytes.Equal(fast, slow) {
			t.Errorf("%s daemon-interval=7: fast-forward stats diverge from interpretive run", app)
		}
	}
}

// TestFastForwardStopsAtQuantum pins the boundary behavior directly: with
// Think spanning the deadline, the node must stop issuing exactly where the
// interpretive loop would, never borrowing references from the next quantum.
func TestFastForwardStopsAtQuantum(t *testing.T) {
	gen := newProbe(2, 4)
	for n := 0; n < 2; n++ {
		// All-hit after first touch: repeated walks over one line-sized
		// region with large Think values relative to the quantum.
		gen.programs[n].Walk(gen.section(n), 64, 64, 400, workload.Read, 97)
	}
	trace := workload.Record(gen)
	for _, q := range []int64{1, 50, 97, 98, 99, 1000} {
		cfg := Config{Arch: params.CCNUMA, Pressure: 50, Quantum: q, MaxCycles: 1 << 40}
		fast := runStats(t, cfg, gen)
		slow := runStats(t, cfg, trace)
		if !bytes.Equal(fast, slow) {
			t.Errorf("quantum=%d: stats diverge across stream implementations", q)
		}
	}
}

// TestArenaRecycleDeterminism runs one config on a fresh machine (the
// arena is emptied first), releases it, and re-runs the same config on the
// recycled machine: the arena contract is that the second run is
// bit-identical to the first.
func TestArenaRecycleDeterminism(t *testing.T) {
	gen, err := workload.New("fft", 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Arch: params.ASCOMA, Pressure: 70, MaxCycles: 1 << 40}

	runOnce := func() ([]byte, *Machine) {
		m, err := New(cfg, gen)
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		buf, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		return buf, m
	}

	emptyArena()
	first, m1 := runOnce()
	m1.Release()
	second, m2 := runOnce()
	if !bytes.Equal(first, second) {
		t.Error("recycled machine produced different stats than a fresh one")
	}
	// Double release must be a no-op, not a double pool insertion.
	m2.Release()
	m2.Release()
}

// TestReleaseKeepsStats ensures the stats escape the pooled machine: a
// later run of the same shape must not scribble over a released run's
// result.
func TestReleaseKeepsStats(t *testing.T) {
	gen, err := workload.New("uniform", 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Arch: params.CCNUMA, Pressure: 50, MaxCycles: 1 << 40}
	m1, err := New(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	st1, err := m1.Run()
	if err != nil {
		t.Fatal(err)
	}
	before, _ := json.Marshal(st1)
	m1.Release()

	m2, err := New(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Run(); err != nil {
		t.Fatal(err)
	}
	after, _ := json.Marshal(st1)
	if !bytes.Equal(before, after) {
		t.Error("reusing a released machine mutated the previous run's stats")
	}
	m2.Release()
}

// TestFastForwardCounters sanity-checks that the fast path actually engages
// (the exactness tests above would pass vacuously if chunked streams were
// never detected) by confirming a generator-driven run reports L1 hits.
func TestFastForwardCounters(t *testing.T) {
	gen := newProbe(1, 2)
	gen.programs[0].Walk(gen.section(0), 128, 64, 1000, workload.Write, 0)
	if _, chunked := gen.Stream(0).(workload.Chunked); !chunked {
		t.Fatal("Program.Stream no longer implements Chunked; fast-forward is dead code")
	}
	_, st := run(t, params.CCNUMA, gen, 50)
	var hits int64
	for i := range st.Nodes {
		hits += st.Nodes[i].L1Hits
	}
	if hits < 1900 {
		t.Errorf("L1 hits = %d, want nearly 2000 (two lines walked 1000 times)", hits)
	}
	if st.Nodes[0].Time[stats.UInstr] != 0 {
		t.Errorf("UInstr = %d, want 0 for think-free program", st.Nodes[0].Time[stats.UInstr])
	}
}
