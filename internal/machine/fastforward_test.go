package machine

import (
	"bytes"
	"encoding/json"
	"testing"

	"ascoma/internal/addr"
	"ascoma/internal/params"
	"ascoma/internal/stats"
	"ascoma/internal/vm"
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
// generator's chunk-compiled streams (fast-forward and closed-form walk
// skipping active) and once from a recorded trace whose streams are not
// *workload.Compiled (interpretive path only) — and requires byte-identical
// statistics. Quantum 1
// stops fast-forward at every reference (each one straddles the deadline);
// quantum 3 lands boundaries mid-chunk at awkward phases; the default
// quantum exercises long hit runs; quanta 1000 and 5000 cover whole walk
// passes per dispatch, where walks are skipped in closed form. Tiny daemon
// intervals force the daemon-deadline bound, critsec puts lock/unlock refs
// mid-chunk, resident is the L1-resident regime the closed form targets,
// and walkProbe mixes sub-line strides, think-free write walks and
// invalidations landing mid-phase.
func TestFastForwardExactness(t *testing.T) {
	apps := []string{"fft", "critsec", "uniform", "resident"}
	if !testing.Short() {
		apps = append(apps, "radix", "barnes")
	}
	gens := map[string]workload.Generator{"walkprobe": walkProbe()}
	names := []string{"walkprobe"}
	for _, app := range apps {
		gen, err := workload.New(app, 8)
		if err != nil {
			t.Fatal(err)
		}
		gens[app] = gen
		names = append(names, app)
	}
	archs := []params.Arch{params.ASCOMA, params.CCNUMA, params.SCOMA, params.RNUMA}
	quanta := []int64{1, 3, 100, 1000, 5000}
	for _, name := range names {
		gen := gens[name]
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			trace := workload.Record(gen)
			if _, chunked := trace.Stream(0).(*workload.Compiled); chunked {
				t.Fatal("trace streams are compiled streams; the test no longer isolates the interpretive path")
			}
			for _, arch := range archs {
				for _, q := range quanta {
					cfg := Config{Arch: arch, Pressure: 50, Quantum: q, MaxCycles: 1 << 40}
					slow := runStats(t, cfg, trace)
					if fast := runStats(t, cfg, gen); !bytes.Equal(fast, slow) {
						t.Errorf("%s/%v quantum=%d: fast-forward stats diverge from interpretive run\nfast: %s\nslow: %s",
							name, arch, q, fast, slow)
					}
				}
			}
			// Daemon-deadline edge: wake the pageout daemon every few cycles so
			// fast-forward constantly runs into nextDaemon mid-chunk.
			p := params.Default()
			p.DaemonInterval = 7
			for _, q := range []int64{100, 1000} {
				cfg := Config{Arch: params.ASCOMA, Pressure: 50, Params: p, Quantum: q, MaxCycles: 1 << 40}
				slow := runStats(t, cfg, trace)
				if fast := runStats(t, cfg, gen); !bytes.Equal(fast, slow) {
					t.Errorf("%s daemon-interval=7 quantum=%d: fast-forward stats diverge from interpretive run", name, q)
				}
			}
		})
	}
}

// walkProbe builds multi-pass walks that stress the closed-form skip: a
// read-modify-write walk at a sub-line stride, think-free write walks, and
// node 1 reading node 0's shared section while node 0 writes it, so
// invalidations and home-snoop downgrades land mid-phase on both nodes.
func walkProbe() *probe {
	gen := newProbe(3, 4)
	gen.priv = 2
	p0, p1, p2 := gen.programs[0], gen.programs[1], gen.programs[2]
	p0.WalkRW(addr.PrivateRegion(0), 2048, 8, 40, 3, 0)
	p0.Walk(gen.section(0), 1024, params.LineSize, 30, workload.Write, 0)
	p0.Walk(gen.section(0), 1024, 16, 30, workload.Read, 1)
	p1.Walk(gen.section(0), 1024, params.LineSize, 30, workload.Read, 1)
	p1.WalkRW(addr.PrivateRegion(1), 4096, 16, 20, 4, 0)
	p1.Walk(gen.section(0), 512, 8, 25, workload.Write, 0)
	p2.Walk(addr.PrivateRegion(2), 64, params.LineSize, 400, workload.Write, 0)
	p2.Walk(gen.section(1), 2048, params.LineSize, 20, workload.Read, 2)
	for _, p := range gen.programs {
		p.Barrier(0)
		p.Walk(gen.section(2), 256, 4, 10, workload.Read, 0)
	}
	return gen
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
	if _, chunked := gen.Stream(0).(*workload.Compiled); !chunked {
		t.Fatal("Program.Stream no longer returns a *workload.Compiled; fast-forward is dead code")
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

// TestSkipWalkConsumesInClosedForm pins that the closed form engages (the
// exactness tests would pass vacuously if it never did): once a dispatch
// has filled the walk's lines, the next dispatch consumes exactly the
// references the per-reference loop would issue in one quantum without
// decoding any — the window stays empty and the walk cursor moves.
func TestSkipWalkConsumesInClosedForm(t *testing.T) {
	gen := newProbe(2, 1)
	gen.priv = 1
	const think, quantum = 2, 1000
	gen.programs[0].WalkRW(addr.PrivateRegion(0), 256, 8, 1000, 4, think)
	m, err := New(Config{Arch: params.ASCOMA, Pressure: 50, Quantum: quantum}, gen)
	if err != nil {
		t.Fatal(err)
	}
	nd := m.nodes[0]
	// Dispatch until the first decoded chunk is consumed: the cold pass
	// fills the walk's eight lines, fast-forward drains the rest.
	var now int64
	for i := 0; nd.pend == nil || len(nd.pend) != nd.pendPos; i++ {
		if i == 100 {
			t.Fatal("first chunk never drained")
		}
		m.runNode(nd, now)
		ev, _ := m.q.Pop()
		now = ev.Time
	}
	w0, pass0, i0 := nd.nextWalk()
	if w0 == nil {
		t.Fatal("no walk pending once the first chunk drained")
	}
	m.runNode(nd, now)
	if rest := len(nd.pend) - nd.pendPos; rest != 0 {
		t.Fatalf("window holds %d decoded refs after a verified walk; want the closed form to skip decoding", rest)
	}
	w1, pass1, i1 := nd.nextWalk()
	if w1 != w0 {
		t.Fatal("walk ended early")
	}
	per := int64(think) + m.p.L1HitCycles
	want := (quantum + per - 1) / per
	if got := w0.Remaining(pass0, i0) - w1.Remaining(pass1, i1); got != want {
		t.Errorf("dispatch consumed %d refs, want %d (ceil(quantum / (think + L1HitCycles)))", got, want)
	}
	if !nd.walk.hits {
		t.Errorf("walk memo = %+v, want verified", nd.walk)
	}
	ev, _ := m.q.Pop()
	now = ev.Time
	if allocs := testing.AllocsPerRun(10, func() {
		m.runNode(nd, now)
		ev, _ := m.q.Pop()
		now = ev.Time
	}); allocs != 0 {
		t.Errorf("closed-form dispatch allocates %.0f times, want 0", allocs)
	}
	m.Release()
}

// TestSkipWalkReverifies holds the closed form's verification memo to the
// L1 generation: after each mutation that evicts one of a verified walk's
// lines from the node's L1 — a cross-node invalidation, an own fill, an own
// eviction, an own relocation — the walk must be re-verified (and now
// fail), never answered from the memo.
func TestSkipWalkReverifies(t *testing.T) {
	gen := newProbe(2, 2)
	page := addr.PageOf(gen.section(1)) // homed at node 1: remote for node 0
	w := &workload.Walk{Base: page.Base(), Stride: params.LineSize, Count: 8, Passes: 4, Op: workload.Write}
	line := func(j int64) addr.Line { return addr.LineOf(w.Base + addr.GVA(j*w.Stride)) }
	cases := []struct {
		name   string
		mode   vm.Mode
		mutate func(m *Machine, nd *node, pte *vm.PTE)
	}{
		{"cross-node invalidation", vm.ModeNUMA, func(m *Machine, nd *node, _ *vm.PTE) {
			m.onInvalidate(nd.id, line(3).Block())
		}},
		{"own fill", vm.ModeNUMA, func(m *Machine, nd *node, _ *vm.PTE) {
			m.l1Fill(nd, line(5)+addr.Line(nd.l1.Sets()), false, 0)
		}},
		{"own eviction", vm.ModeSCOMA, func(m *Machine, nd *node, pte *vm.PTE) {
			m.evict(nd, pte)
		}},
		{"own relocation", vm.ModeNUMA, func(m *Machine, nd *node, pte *vm.PTE) {
			m.relocate(nd, pte, 0)
			if nd.st.Upgrades != 1 {
				t.Fatal("relocation did not upgrade the page")
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, err := New(Config{Arch: params.ASCOMA, Pressure: 50}, gen)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Release()
			nd := m.nodes[0]
			pte := nd.vmm.MapNUMA(page, 1)
			if c.mode == vm.ModeSCOMA {
				nd.vmm.Unmap(pte)
				if pte = nd.vmm.MapSCOMA(page, 1); pte == nil {
					t.Fatal("no free page for the S-COMA mapping")
				}
			}
			for j := int64(0); j < w.Count; j++ {
				m.l1Fill(nd, line(j), true, 0)
			}
			if !nd.verifyWalk(w, 0) {
				t.Fatal("walk over freshly filled lines does not verify")
			}
			c.mutate(m, nd, pte)
			if nd.verifyWalk(w, 0) {
				t.Errorf("walk still verifies after the %s evicted one of its lines: the memo outlived the L1 state", c.name)
			}
		})
	}
}
