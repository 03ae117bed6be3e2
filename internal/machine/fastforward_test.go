package machine

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"ascoma/internal/addr"
	"ascoma/internal/obs"
	"ascoma/internal/params"
	"ascoma/internal/sim"
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
// generator's chunk-compiled streams (borrowed chunk windows and the
// closed-form walk skip active) and once from a recorded trace — and
// requires byte-identical statistics. The trace is still the
// per-reference reference: its streams are not *workload.Compiled, so the
// machine reads them through a workload.Chunked wrapper, which has no
// program and so no walks to skip; every trace reference is simulated on
// runNode's loop. Quantum 1
// stops a walk skip at every reference (each one straddles the deadline);
// quantum 3 lands boundaries mid-chunk at awkward phases; the default
// quantum exercises long hit runs; quanta 1000 and 5000 cover whole walk
// passes per dispatch, where walks are skipped in closed form. Tiny daemon
// intervals force the daemon-deadline bound, critsec puts lock/unlock refs
// mid-chunk, resident is the L1-resident regime the closed form targets,
// walkProbe mixes sub-line strides, think-free write walks and
// invalidations landing mid-phase, and the cruise cases hold the events
// served from a cruise record to the same standard (testCruiseExactness).
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
						t.Errorf("%s/%v quantum=%d: compiled-stream stats diverge from interpretive run\nfast: %s\nslow: %s",
							name, arch, q, fast, slow)
					}
				}
			}
			// Daemon-deadline edge: wake the pageout daemon every few cycles so
			// walk skips constantly run into nextDaemon mid-walk.
			p := params.Default()
			p.DaemonInterval = 7
			for _, q := range []int64{100, 1000} {
				cfg := Config{Arch: params.ASCOMA, Pressure: 50, Params: p, Quantum: q, MaxCycles: 1 << 40}
				slow := runStats(t, cfg, trace)
				if fast := runStats(t, cfg, gen); !bytes.Equal(fast, slow) {
					t.Errorf("%s daemon-interval=7 quantum=%d: compiled-stream stats diverge from interpretive run", name, q)
				}
			}
		})
	}
	t.Run("cruise", testCruiseExactness)
}

// stepRun drives m to completion as RunContext does, calling see before
// each event is dispatched, and returns the statistics as JSON with the
// workload name blanked (as runStats does). see observes the node's state
// at the event, before the cruise record serves it or is dropped.
func stepRun(t *testing.T, m *Machine, see func(nd *node, now int64)) []byte {
	t.Helper()
	for i := range m.nodes {
		m.q.Push(sim.Event{Time: 0, Node: int32(i)})
	}
	for m.aborted == nil {
		ev, ok := m.q.Pop()
		if !ok {
			break
		}
		nd := m.nodes[ev.Node]
		see(nd, ev.Time)
		m.dispatch(nd, ev.Time)
	}
	if m.aborted != nil || m.active > 0 {
		t.Fatalf("stepped run did not finish: aborted=%v active=%d", m.aborted, m.active)
	}
	m.finalize()
	m.st.Workload = ""
	buf, err := json.Marshal(m.st)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// testCruiseExactness holds the cruise record (serveCruise) to the
// interpretive run of a recorded trace, byte for byte, in the cases that
// end a cruise before its walk does, and checks that each case happened:
// that events were served from a record, and that a record met the
// condition the case is named for. Quanta 10 and 100 cut resident's walks
// into many short cruises; "invalidated" has node 1 write into the shared
// lines node 0 walks, so node 0's L1 generation changes under a record;
// "daemon" wakes the pageout daemon inside resident's walks; "epochs" and
// "samples" take epoch probes and adaptation samples on node 0's dispatch
// during its cruises, and also compare the recordings and samples. Each
// run is also checked against Run.
func testCruiseExactness(t *testing.T) {
	resident, err := workload.New("resident", 8)
	if err != nil {
		t.Fatal(err)
	}
	daemon := params.Default()
	daemon.DaemonInterval = 20_000
	cases := []struct {
		name   string
		gen    workload.Generator
		cfg    Config
		epochs int64 // epoch interval; 0 for none
		// met reports whether the event at now meets the case's condition
		// while nd holds a cruise record.
		met func(m *Machine, nd *node, now int64) bool
	}{
		{"resident/q10", resident, Config{Arch: params.ASCOMA, Pressure: 50, Quantum: 10}, 0, nil},
		{"resident/q100", resident, Config{Arch: params.ASCOMA, Pressure: 50, Quantum: 100}, 0, nil},
		{"invalidated", sharedWriter(), Config{Arch: params.ASCOMA, Pressure: 50, Quantum: 1000}, 0, func(m *Machine, nd *node, now int64) bool {
			return nd.invGen != nd.cruise.gen
		}},
		// At 90% pressure the pool runs below free_min, so a daemon pass
		// costs cycles and evicts: one run late would show.
		{"daemon", resident, Config{Arch: params.ASCOMA, Pressure: 90, Quantum: 1000, Params: daemon}, 0, func(m *Machine, nd *node, now int64) bool {
			return now+m.quantum > nd.nextDaemon
		}},
		{"epochs", resident, Config{Arch: params.ASCOMA, Pressure: 50, Quantum: 1000}, 5_000, func(m *Machine, nd *node, now int64) bool {
			return nd.id == 0 && now >= m.nextEpoch
		}},
		{"samples", resident, Config{Arch: params.ASCOMA, Pressure: 50, Quantum: 1000, SampleInterval: 5_000}, 0, func(m *Machine, nd *node, now int64) bool {
			return nd.id == 0 && now >= m.nextSample
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			trace := workload.Record(c.gen)
			cfg := c.cfg
			cfg.MaxCycles = 1 << 40
			// run steps one machine over gen and returns its stats, its
			// samples and its encoded recording.
			run := func(gen workload.Generator, see func(m *Machine, nd *node, now int64)) (st, samples, rec []byte, cruised int64) {
				cfg := cfg
				var r *obs.Recording
				if c.epochs > 0 {
					r = obs.NewRecording(1<<14, c.epochs)
					cfg.Obs = r
				}
				m, err := New(cfg, gen)
				if err != nil {
					t.Fatal(err)
				}
				defer m.Release()
				st = stepRun(t, m, func(nd *node, now int64) { see(m, nd, now) })
				if samples, err = json.Marshal(m.Samples()); err != nil {
					t.Fatal(err)
				}
				if r != nil {
					rec = obs.AppendRecording(nil, r)
				}
				return st, samples, rec, m.cruised
			}
			slow, slowSamples, slowRec, _ := run(trace, func(*Machine, *node, int64) {})
			met := 0
			fast, fastSamples, fastRec, cruised := run(c.gen, func(m *Machine, nd *node, now int64) {
				if c.met != nil && nd.cruise.w != nil && c.met(m, nd, now) {
					met++
				}
			})
			if !bytes.Equal(fast, slow) {
				t.Fatalf("cruising stats diverge from the interpretive run\nfast: %s\nslow: %s", fast, slow)
			}
			if !bytes.Equal(fastSamples, slowSamples) || !bytes.Equal(fastRec, slowRec) {
				t.Fatal("cruising samples or recording diverge from the interpretive run's")
			}
			if direct := runStats(t, cfg, c.gen); !bytes.Equal(direct, fast) {
				t.Fatal("Run's stats differ from the stepped run's")
			}
			if cruised == 0 {
				t.Fatal("no event was served from a cruise record")
			}
			if c.met != nil && met == 0 {
				t.Fatalf("%d events cruised, but no record met the %s condition", cruised, c.name)
			}
			t.Logf("%d events cruised, %d records met the condition", cruised, met)
		})
	}
}

// sharedWriter has node 0 walk lines of its own shared section, pass after
// pass, while node 1 writes one of those lines every few hundred cycles:
// each write invalidates node 0's L1 copy through the home snoop, under
// whatever cruise record node 0 holds.
func sharedWriter() *workload.Programs {
	gen := newProbe(2, 2, 1)
	gen.Program(0).Walk(gen.Section(0), 1024, params.LineSize, 400, workload.Read, 1)
	for r := 0; r < 12; r++ {
		gen.Program(1).Walk(addr.PrivateRegion(1), 256, params.LineSize, 40, workload.Read, 3)
		gen.Program(1).Walk(gen.Section(0)+addr.GVA(r%16*params.LineSize), params.LineSize, params.LineSize, 1, workload.Write, 0)
	}
	return gen
}

// TestCruiseServesResident pins that the cruise carries the L1-resident
// regime it exists for: in BenchmarkResident's run (scale 1, quantum
// 1000) most quanta are served from a cruise record rather than by
// runNode.
func TestCruiseServesResident(t *testing.T) {
	gen, err := workload.New("resident", 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{Arch: params.ASCOMA, Pressure: 30, Quantum: 1000}, gen)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	// A dispatch that served no quantum ran runNode.
	var ran, last int64 = 0, -1
	stepRun(t, m, func(*node, int64) {
		if m.cruised == last {
			ran++
		}
		last = m.cruised
	})
	if m.cruised == last {
		ran++
	}
	if m.cruised*10 < (ran+m.cruised)*6 {
		t.Errorf("%d of %d quanta served from a cruise record, want at least 60%%", m.cruised, ran+m.cruised)
	}
	t.Logf("%d of %d quanta served from a cruise record", m.cruised, ran+m.cruised)
}

// walkProbe builds multi-pass walks that stress the closed-form skip: a
// read-modify-write walk at a sub-line stride, think-free write walks, and
// node 1 reading node 0's shared section while node 0 writes it, so
// invalidations and home-snoop downgrades land mid-phase on both nodes.
func walkProbe() *workload.Programs {
	gen := newProbe(3, 4, 2)
	p0, p1, p2 := gen.Program(0), gen.Program(1), gen.Program(2)
	p0.WalkRW(addr.PrivateRegion(0), 2048, 8, 40, 3, 0)
	p0.Walk(gen.Section(0), 1024, params.LineSize, 30, workload.Write, 0)
	p0.Walk(gen.Section(0), 1024, 16, 30, workload.Read, 1)
	p1.Walk(gen.Section(0), 1024, params.LineSize, 30, workload.Read, 1)
	p1.WalkRW(addr.PrivateRegion(1), 4096, 16, 20, 4, 0)
	p1.Walk(gen.Section(0), 512, 8, 25, workload.Write, 0)
	p2.Walk(addr.PrivateRegion(2), 64, params.LineSize, 400, workload.Write, 0)
	p2.Walk(gen.Section(1), 2048, params.LineSize, 20, workload.Read, 2)
	for n := 0; n < gen.Nodes(); n++ {
		p := gen.Program(n)
		p.Barrier(0)
		p.Walk(gen.Section(2), 256, 4, 10, workload.Read, 0)
	}
	return gen
}

// TestFastForwardStopsAtQuantum pins the boundary behavior directly: with
// Think spanning the deadline, the node must stop issuing exactly where the
// interpretive loop would, never borrowing references from the next quantum.
func TestFastForwardStopsAtQuantum(t *testing.T) {
	gen := newProbe(2, 4, 0)
	for n := 0; n < 2; n++ {
		// All-hit after first touch: repeated walks over one line-sized
		// region with large Think values relative to the quantum.
		gen.Program(n).Walk(gen.Section(n), 64, 64, 400, workload.Read, 97)
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

// TestFastForwardCounters sanity-checks that the chunked path actually
// engages (the exactness tests above would pass vacuously if chunked
// streams were never detected) by confirming a generator-driven run
// reports L1 hits.
func TestFastForwardCounters(t *testing.T) {
	gen := newProbe(1, 2, 0)
	gen.Program(0).Walk(gen.Section(0), 128, 64, 1000, workload.Write, 0)
	if _, chunked := gen.Stream(0).(*workload.Compiled); !chunked {
		t.Fatal("Program.Stream no longer returns a *workload.Compiled; the chunk window and the walk skip are dead code")
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
	gen := newProbe(2, 1, 1)
	const think, quantum = 2, 1000
	gen.Program(0).WalkRW(addr.PrivateRegion(0), 256, 8, 1000, 4, think)
	m, err := New(Config{Arch: params.ASCOMA, Pressure: 50, Quantum: quantum}, gen)
	if err != nil {
		t.Fatal(err)
	}
	nd := m.nodes[0]
	// Dispatch until the first decoded chunk is consumed: the cold pass
	// fills the walk's eight lines, runNode's hit path drains the rest.
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
	gen := newProbe(2, 2, 0)
	page := addr.PageOf(gen.Section(1)) // homed at node 1: remote for node 0
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
			// Fill as a run does: a remote line enters the L1 only
			// after its block's fetch puts the node in the copyset.
			for j := int64(0); j < w.Count; j++ {
				m.dir.Fetch(nd.id, line(j).Block(), true, false)
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

// TestCruiseHorizonTies checks that FuzzCruiseHorizon's seeds reach the
// cases its tie rule exists for, and that they batch: after some dispatch
// the ring holds two cruise quanta at one time with one period, after
// some dispatch a cruise quantum shares its time with an event that will
// not cruise, and some dispatches serve more than one quantum.
func TestCruiseHorizonTies(t *testing.T) {
	var equal, mixed, batches int
	for _, s := range horizonSeeds {
		if s.maxCycles != 0 {
			continue
		}
		gen, cfg := horizonCase(s)
		m, err := New(cfg, gen)
		if err != nil {
			t.Fatal(err)
		}
		var last int64
		stepRun(t, m, func(*node, int64) {
			if m.cruised > last+1 {
				batches++
			}
			last = m.cruised
			for a := 0; a < m.q.Len(); a++ {
				ea := m.q.At(a)
				ca := &m.nodes[ea.Node].cruise
				for b := a + 1; b < m.q.Len() && m.q.At(b).Time == ea.Time; b++ {
					cb := &m.nodes[m.q.At(b).Node].cruise
					switch {
					case ca.w != nil && cb.w != nil && ca.cycles == cb.cycles:
						equal++
					case (ca.w == nil) != (cb.w == nil):
						mixed++
					}
				}
			}
		})
		m.Release()
	}
	if equal == 0 || mixed == 0 || batches == 0 {
		t.Errorf("seeds left %d equal-period cruise ties and %d cruise/non-cruise ties in the ring, and batched %d times; want all three",
			equal, mixed, batches)
	}
	t.Logf("%d equal-period cruise ties, %d cruise/non-cruise ties, %d batches", equal, mixed, batches)
}

// TestCruiseBatchesResident pins the horizon's reach on L1-resident runs,
// each matched against its recorded trace. BenchmarkResident's run (scale
// 1, quantum 1000): the per-event loop dispatched 6,768 events, about
// 6,090 of them single cruise quanta; with every quantum before the next
// event that can act served in one step, fewer than 1,000 are dispatched.
// A lone cruiser (quantum 100): node 1 waits at a barrier while node 0
// sweeps an L1-resident tile, so the ring holds nothing but node 0's
// event; after its cold first pass (one event per miss) its 1,277 cruise
// quanta take a few events, not one each.
func TestCruiseBatchesResident(t *testing.T) {
	resident, err := workload.New("resident", 1)
	if err != nil {
		t.Fatal(err)
	}
	lone := newProbe(2, 1, 1)
	lone.Program(0).Walk(addr.PrivateRegion(0), 1024, params.LineSize, 2000, workload.Read, 1)
	lone.Program(0).Barrier(0)
	lone.Program(1).Barrier(0)
	for _, c := range []struct {
		name       string
		gen        workload.Generator
		quantum    int64
		maxEvents  int
		minCruised int64
	}{
		{"resident", resident, 1000, 999, 6000},
		{"lone", lone, 100, 40, 1000},
	} {
		cfg := Config{Arch: params.ASCOMA, Pressure: 30, Quantum: c.quantum}
		m, err := New(cfg, c.gen)
		if err != nil {
			t.Fatal(err)
		}
		events := 0
		fast := stepRun(t, m, func(*node, int64) { events++ })
		if events > c.maxEvents || m.cruised < c.minCruised {
			t.Errorf("%s: %d events dispatched, %d quanta cruised; want at most %d events and at least %d quanta",
				c.name, events, m.cruised, c.maxEvents, c.minCruised)
		}
		if slow := runStats(t, cfg, workload.Record(c.gen)); !bytes.Equal(fast, slow) {
			t.Errorf("%s: stats diverge from the recorded trace\nfast: %s\nslow: %s", c.name, fast, slow)
		}
		t.Logf("%s: %d events dispatched, %d quanta cruised", c.name, events, m.cruised)
		m.Release()
	}
}

// TestCruiseHorizonMatchesPerEvent holds cruiseHorizon to the loop it
// replaces, one quantum per event, on random rings of cruise records with
// small periods and start times, so equal-time events are the rule: equal
// and unequal periods, chains that start together or apart, and records
// cut short by their walk's end, the daemon timer, node 0's samples and
// epochs, and MaxCycles. Each loop pops events until the ring is empty; an
// event that is not served stands for a node that acts, is logged, and
// leaves the ring. Both loops must log the same events in the same order,
// which is the order the per-event loop would run them in, and leave the
// same statistics and records.
func TestCruiseHorizonMatchesPerEvent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 3000; iter++ {
		nodes := 2 + rng.Intn(7)
		if iter%500 == 0 {
			nodes = 64
		}
		seed := rng.Int63()
		perEvent, perEventLog := horizonMachine(t, nodes, seed, func(m *Machine, nd *node, now int64) bool {
			c := &nd.cruise
			if nd.blocked != 0 || nd.invGen != c.gen || c.left <= c.kq || now+m.quantum > nd.nextDaemon ||
				m.maxCycles > 0 && now > m.maxCycles ||
				nd.id == 0 && (m.sampleIntv > 0 && now >= m.nextSample || m.epochIntv > 0 && now >= m.nextEpoch) {
				return false
			}
			m.serveQuanta(nd, 1)
			m.q.Push(sim.Event{Time: now + c.cycles, Node: int32(nd.id)})
			return true
		})
		horizon, horizonLog := horizonMachine(t, nodes, seed, func(m *Machine, nd *node, now int64) bool {
			if m.maxCycles > 0 && now > m.maxCycles {
				return false // runLoop stops before dispatch
			}
			return m.serveCruise(nd, now)
		})
		if !reflect.DeepEqual(perEventLog, horizonLog) {
			t.Fatalf("iteration %d (%d nodes): unserved events pop in another order\nper event: %v\nhorizon:   %v",
				iter, nodes, perEventLog, horizonLog)
		}
		if perEvent.cruised != horizon.cruised {
			t.Fatalf("iteration %d: %d quanta served per event, %d by the horizon", iter, perEvent.cruised, horizon.cruised)
		}
		for i := range perEvent.nodes {
			if a, b := perEvent.nodes[i], horizon.nodes[i]; a.st != b.st || a.cruise.left != b.cruise.left {
				t.Fatalf("iteration %d: node %d's statistics or record differ", iter, i)
			}
		}
		perEvent.Release()
		horizon.Release()
	}
}

// horizonMachine builds a machine of nodes nodes whose every node holds a
// random cruise record with its event in the ring, drawn from seed, and
// pops its events until the ring is empty: serve reports whether it served
// an event; an event it does not serve is logged and its node's record
// dropped.
func horizonMachine(t *testing.T, nodes int, seed int64, serve func(m *Machine, nd *node, now int64) bool) (*Machine, []sim.Event) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	gen := newProbe(nodes, 1, 1)
	for i := 0; i < nodes; i++ {
		gen.Program(i).Walk(addr.PrivateRegion(i), params.PageSize, params.LineSize, 1000, workload.Read, 0)
	}
	m, err := New(Config{Arch: params.ASCOMA, Pressure: 50, Quantum: 1 + rng.Int63n(4)}, gen)
	if err != nil {
		t.Fatal(err)
	}
	if rng.Intn(3) == 0 {
		m.maxCycles = 10 + rng.Int63n(40)
	}
	if rng.Intn(3) == 0 {
		m.sampleIntv, m.nextSample = 1, rng.Int63n(40)
	}
	if rng.Intn(3) == 0 {
		m.epochIntv, m.nextEpoch = 1, rng.Int63n(40)
	}
	w, _, _ := m.nodes[0].chunks.NextWalk()
	for _, i := range rng.Perm(nodes) {
		nd := m.nodes[i]
		kq := 1 + rng.Int63n(3)
		per := 1 + rng.Int63n(3)
		nd.cruise = cruise{w: w, gen: nd.invGen, left: 1 + rng.Int63n(30), kq: kq, cycles: kq * per, uinstr: kq * (per - 1), stall: kq}
		nd.nextDaemon = 1 << 40
		if rng.Intn(4) == 0 {
			nd.nextDaemon = rng.Int63n(60)
		}
		m.q.Push(sim.Event{Time: rng.Int63n(8), Node: int32(i)})
	}
	var log []sim.Event
	for {
		ev, ok := m.q.Pop()
		if !ok {
			return m, log
		}
		if nd := m.nodes[ev.Node]; !serve(m, nd, ev.Time) {
			log = append(log, ev)
			nd.dropCruise()
		}
	}
}
