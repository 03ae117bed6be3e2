package machine

import (
	"bytes"
	"strings"
	"testing"

	"ascoma/internal/addr"
	"ascoma/internal/params"
	"ascoma/internal/stats"
	"ascoma/internal/vm"
	"ascoma/internal/workload"
)

// newProbe builds a hand-built workload for machine-level tests: an
// explicit program per node over a small pre-placed shared region, section
// n homePages pages at node n.
func newProbe(nodes, homePages, privPages int) *workload.Programs {
	return workload.NewPrograms("probe", nodes, homePages, privPages)
}

func run(t *testing.T, arch params.Arch, gen workload.Generator, pressure int) (*Machine, *stats.Machine) {
	t.Helper()
	m, err := New(Config{Arch: arch, Pressure: pressure, MaxCycles: 1 << 40}, gen)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return m, st
}

func TestConfigValidation(t *testing.T) {
	gen := newProbe(2, 1, 0)
	if _, err := New(Config{Arch: params.CCNUMA, Pressure: 0}, gen); err == nil {
		t.Error("pressure 0 accepted")
	}
	if _, err := New(Config{Arch: params.CCNUMA, Pressure: 100}, gen); err == nil {
		t.Error("pressure 100 accepted")
	}
	bad := params.Default()
	bad.MemBanks = 0
	if _, err := New(Config{Arch: params.CCNUMA, Pressure: 50, Params: bad}, gen); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestEmptyStreamsFinishAtZero(t *testing.T) {
	gen := newProbe(2, 1, 0)
	_, st := run(t, params.CCNUMA, gen, 50)
	if st.ExecTime != 0 {
		t.Errorf("exec time %d for empty streams", st.ExecTime)
	}
}

// TestTable4MinimumLatencies reproduces Table 4: the minimum latency to
// satisfy a load from each level of the global memory hierarchy.
func TestTable4MinimumLatencies(t *testing.T) {
	p := params.Default()

	// L1 hit: read the same line twice; the second is a hit.
	gen := newProbe(2, 1, 0)
	gen.Program(1).Walk(gen.Section(1), params.LineSize, params.LineSize, 2, workload.Read, 0)
	_, st := run(t, params.CCNUMA, gen, 50)
	n := &st.Nodes[1]
	if n.L1Hits != 1 {
		t.Fatalf("L1 hits = %d, want 1", n.L1Hits)
	}

	// Local memory: one home miss.
	gen = newProbe(2, 1, 0)
	gen.Program(1).Walk(gen.Section(1), params.LineSize, params.LineSize, 1, workload.Read, 0)
	_, st = run(t, params.CCNUMA, gen, 50)
	n = &st.Nodes[1]
	local := n.Time[stats.UShMem]
	wantLocal := p.BusCycles + p.LocalMemCycles
	if local != wantLocal {
		t.Errorf("local memory latency = %d, want %d", local, wantLocal)
	}

	// Remote memory: one cold remote miss (node 1 reads node 0's page),
	// then a RAC hit on the next line of the same 128-byte block.
	gen = newProbe(2, 1, 0)
	gen.Program(1).Walk(gen.Section(0), 2*params.LineSize, params.LineSize, 1, workload.Read, 0)
	_, st = run(t, params.CCNUMA, gen, 50)
	n = &st.Nodes[1]
	if n.Misses[stats.Cold] != 1 || n.Misses[stats.RAC] != 1 {
		t.Fatalf("miss mix: %+v", n.Misses)
	}
	remoteAndRAC := n.Time[stats.UShMem]
	wantRemoteMin := p.RemoteMemCycles() // uncontended minimum
	wantRAC := p.RACHitCycles
	if remoteAndRAC < wantRemoteMin || remoteAndRAC > wantRemoteMin+wantRAC+p.NetPortOccupancy*2 {
		t.Errorf("remote+RAC latency = %d, want about %d + %d", remoteAndRAC, wantRemoteMin, wantRAC)
	}

	// The remote:local ratio must stay about 3:1 (Table 4's footnote).
	ratio := float64(wantRemoteMin) / float64(wantLocal)
	if ratio < 2 || ratio > 4 {
		t.Errorf("remote:local = %.1f, want about 3", ratio)
	}
}

// TestTimeConservation: every cycle of a node's finish time is attributed
// to exactly one category.
func TestTimeConservation(t *testing.T) {
	for _, name := range []string{"uniform", "hotcold", "stream"} {
		for _, arch := range params.AllArchs() {
			gen, err := workload.New(name, 16)
			if err != nil {
				t.Fatal(err)
			}
			_, st := run(t, arch, gen, 60)
			for i := range st.Nodes {
				n := &st.Nodes[i]
				if n.TotalTime() != n.FinishTime {
					t.Errorf("%s/%v node %d: categories sum to %d, finish %d",
						name, arch, i, n.TotalTime(), n.FinishTime)
				}
			}
		}
	}
}

// TestMissConservation: every shared L1 miss is classified exactly once.
func TestMissConservation(t *testing.T) {
	gen, err := workload.New("uniform", 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, arch := range params.AllArchs() {
		_, st := run(t, arch, gen, 50)
		for i := range st.Nodes {
			n := &st.Nodes[i]
			// Shared refs = L1 hits on shared + classified misses.
			// L1Hits counts both shared and private hits, so bound it.
			if n.TotalMisses() > n.SharedRefs {
				t.Errorf("%v node %d: %d misses > %d shared refs", arch, i, n.TotalMisses(), n.SharedRefs)
			}
			if n.TotalMisses()+n.L1Hits < n.SharedRefs {
				t.Errorf("%v node %d: misses %d + hits %d < shared refs %d",
					arch, i, n.TotalMisses(), n.L1Hits, n.SharedRefs)
			}
		}
	}
}

func TestBarrierSynchronizesNodes(t *testing.T) {
	gen := newProbe(2, 1, 0)
	// Node 0 works long before the barrier; node 1 arrives immediately.
	gen.Program(0).Walk(gen.Section(0), 64*params.LineSize, params.LineSize, 4, workload.Read, 10)
	gen.Program(0).Barrier(0)
	gen.Program(1).Barrier(0)
	_, st := run(t, params.CCNUMA, gen, 50)
	if st.Nodes[1].Time[stats.Sync] == 0 {
		t.Error("early arriver charged no SYNC")
	}
	if st.Nodes[0].FinishTime != st.Nodes[1].FinishTime {
		t.Errorf("nodes finished at %d and %d, want together",
			st.Nodes[0].FinishTime, st.Nodes[1].FinishTime)
	}
}

func TestBarrierMismatchResolves(t *testing.T) {
	// A finished node no longer participates in barriers, so a program
	// whose nodes have unequal barrier counts still completes: the extra
	// barriers release once only their issuer is running.
	gen := newProbe(2, 1, 0)
	gen.Program(0).Barrier(0)
	gen.Program(0).Barrier(1) // node 1 never reaches a second barrier
	m, err := New(Config{Arch: params.CCNUMA, Pressure: 50}, gen)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Errorf("mismatched barrier counts did not resolve: %v", err)
	}
}

func TestFinishedNodeDoesNotBlockBarrier(t *testing.T) {
	gen := newProbe(2, 1, 0)
	// Node 0 finishes without any barrier; node 1 hits one... that would
	// deadlock with a strict count, so the machine must release barriers
	// among still-running nodes only. Give both a barrier, but node 0
	// finishes right after while node 1 has another stretch of work.
	gen.Program(0).Barrier(0)
	gen.Program(1).Barrier(0)
	gen.Program(1).Walk(gen.Section(1), 8*params.LineSize, params.LineSize, 1, workload.Read, 0)
	_, st := run(t, params.CCNUMA, gen, 50)
	if st.ExecTime == 0 {
		t.Error("run did not progress")
	}
}

func TestMaxCyclesAborts(t *testing.T) {
	gen := newProbe(2, 1, 0)
	gen.Program(0).Walk(gen.Section(0), 1024*params.LineSize, params.LineSize, 100, workload.Read, 100)
	m, err := New(Config{Arch: params.CCNUMA, Pressure: 50, MaxCycles: 1000}, gen)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "MaxCycles") {
		t.Errorf("MaxCycles: err = %v", err)
	}
}

func TestPageFaultsCountedOncePerPage(t *testing.T) {
	gen := newProbe(2, 2, 0)
	// Remote pages fault once each; the home node's own pages were
	// mapped before the timed phase and never fault.
	gen.Program(1).Walk(gen.Section(0), 2*params.PageSize, params.LineSize, 3, workload.Read, 0)
	gen.Program(1).Walk(gen.Section(1), 2*params.PageSize, params.LineSize, 1, workload.Read, 0)
	_, st := run(t, params.CCNUMA, gen, 50)
	if st.Nodes[1].PageFaults != 2 {
		t.Errorf("faults = %d, want 2", st.Nodes[1].PageFaults)
	}
	if st.Nodes[1].RemotePagesSeen != 2 {
		t.Errorf("remote pages seen = %d, want 2", st.Nodes[1].RemotePagesSeen)
	}
}

func TestPrivateReferencesClassified(t *testing.T) {
	gen := newProbe(2, 1, 2)
	gen.Program(1).Walk(addr.PrivateRegion(1), params.PageSize, params.LineSize, 1, workload.Write, 0)
	_, st := run(t, params.CCNUMA, gen, 50)
	n := &st.Nodes[1]
	if n.PrivateRefs == 0 || n.SharedRefs != 0 {
		t.Errorf("refs: private=%d shared=%d", n.PrivateRefs, n.SharedRefs)
	}
	if n.TotalMisses() != 0 {
		t.Error("private misses classified as shared")
	}
	if n.Time[stats.ULcMem] == 0 {
		t.Error("no U-LC-MEM time for private misses")
	}
}

// TestHomeAccessesStayLocal: the home node's misses are HOME-class and
// never generate remote traffic.
func TestHomeAccessesStayLocal(t *testing.T) {
	gen := newProbe(2, 2, 0)
	gen.Program(0).WalkRW(gen.Section(0), 2*params.PageSize, params.LineSize, 2, 3, 0)
	_, st := run(t, params.CCNUMA, gen, 50)
	n := &st.Nodes[0]
	if n.Misses[stats.Home] == 0 {
		t.Fatal("no HOME misses")
	}
	for c := stats.SComa; c < stats.NumMissCats; c++ {
		if n.Misses[c] != 0 {
			t.Errorf("home node has %v misses", c)
		}
	}
}

// TestSCOMAPageCacheEliminatesRefetches: at low pressure the second pass
// over remote data hits the page cache under S-COMA but refetches remotely
// under CC-NUMA.
func TestSCOMAPageCacheEliminatesRefetches(t *testing.T) {
	build := func() *workload.Programs {
		gen := newProbe(2, 4, 8)
		// Two block-strided passes with an L1-clearing private walk in
		// between (block stride so the RAC cannot help).
		gen.Program(1).Walk(gen.Section(0), 4*params.PageSize, params.BlockSize, 1, workload.Read, 0)
		gen.Program(1).Walk(addr.PrivateRegion(1), 8*params.PageSize, params.LineSize, 1, workload.Read, 0)
		gen.Program(1).Walk(gen.Section(0), 4*params.PageSize, params.BlockSize, 1, workload.Read, 0)
		return gen
	}
	_, ccn := run(t, params.CCNUMA, build(), 50)
	_, sco := run(t, params.SCOMA, build(), 10)

	if ccn.Nodes[1].Misses[stats.ConfCapc] == 0 {
		t.Error("CC-NUMA second pass generated no conflict refetches")
	}
	if sco.Nodes[1].Misses[stats.ConfCapc] != 0 {
		t.Errorf("S-COMA refetched remotely %d times at low pressure", sco.Nodes[1].Misses[stats.ConfCapc])
	}
	if sco.Nodes[1].Misses[stats.SComa] == 0 {
		t.Error("S-COMA page cache satisfied nothing")
	}
	if sco.Nodes[1].Time[stats.UShMem] >= ccn.Nodes[1].Time[stats.UShMem] {
		t.Error("S-COMA no faster than CC-NUMA on a page-cache-friendly pattern")
	}
}

// TestRNUMAUpgradesHotPage: a page refetched past the threshold is
// relocated to S-COMA mode and subsequent misses are satisfied locally.
func TestRNUMAUpgradesHotPage(t *testing.T) {
	p := params.Default()
	gen := newProbe(2, 1, 8)
	// Alternate block-strided passes over the remote page with private
	// L1-clearing walks; each pass after the first adds 32 refetches.
	for i := 0; i < 8; i++ {
		gen.Program(1).Walk(gen.Section(0), params.PageSize, params.BlockSize, 1, workload.Read, 0)
		gen.Program(1).Walk(addr.PrivateRegion(1), 8*params.PageSize, params.LineSize, 1, workload.Read, 0)
	}
	m, st := run(t, params.RNUMA, gen, 50)
	n := &st.Nodes[1]
	if n.Upgrades != 1 {
		t.Fatalf("upgrades = %d, want 1", n.Upgrades)
	}
	if n.Misses[stats.SComa] == 0 {
		t.Error("no page-cache hits after the upgrade")
	}
	if n.InducedCold == 0 {
		t.Error("the upgrade flush induced no cold misses")
	}
	pte := m.NodeVM(1).Lookup(addr.PageOf(gen.Section(0)))
	if pte == nil || pte.Mode != vm.ModeSCOMA {
		t.Errorf("page not in S-COMA mode after upgrade: %+v", pte)
	}
	if n.Time[stats.KOverhead] < p.InterruptCycles+p.RelocationCycles {
		t.Errorf("kernel overhead %d below interrupt+relocation", n.Time[stats.KOverhead])
	}
}

// TestCCNUMANeverRemaps: the baseline takes no kernel overhead and keeps
// every remote page in NUMA mode.
func TestCCNUMANeverRemaps(t *testing.T) {
	gen, err := workload.New("hotcold", 16)
	if err != nil {
		t.Fatal(err)
	}
	_, st := run(t, params.CCNUMA, gen, 50)
	for i := range st.Nodes {
		n := &st.Nodes[i]
		if n.Upgrades != 0 || n.Downgrades != 0 {
			t.Fatalf("node %d remapped", i)
		}
		if n.Time[stats.KOverhead] != 0 {
			t.Fatalf("node %d: CC-NUMA charged K-OVERHD %d", i, n.Time[stats.KOverhead])
		}
		if n.Misses[stats.SComa] != 0 {
			t.Fatalf("node %d: CC-NUMA page-cache hits", i)
		}
	}
}

// TestPureSCOMAUnmapsEvictedPages: after a forced replacement the evicted
// page must fault again, not silently become CC-NUMA.
func TestPureSCOMAUnmapsEvictedPages(t *testing.T) {
	gen := newProbe(2, 8, 0)
	// Touch far more remote pages than the page cache holds, twice.
	gen.Program(1).Walk(gen.Section(0), 8*params.PageSize, params.PageSize, 2, workload.Read, 0)
	_, st := run(t, params.SCOMA, gen, 90)
	n := &st.Nodes[1]
	if n.Downgrades == 0 {
		t.Fatal("no forced replacements at 90% pressure")
	}
	// Each replaced page faults again on the second pass.
	if n.PageFaults <= 8 {
		t.Errorf("faults = %d; evicted pages did not re-fault", n.PageFaults)
	}
}

// TestWriteInvalidationAcrossNodes: a write by one node invalidates the
// other's cached copy end to end.
func TestWriteInvalidationAcrossNodes(t *testing.T) {
	gen := newProbe(3, 1, 0)
	// Node 1 reads node 0's block, then node 2 writes it, then node 1
	// reads again (remote conflict-class, since it lost the copy).
	gen.Program(1).Walk(gen.Section(0), params.LineSize, params.LineSize, 1, workload.Read, 0)
	gen.Program(1).Barrier(0)
	gen.Program(2).Barrier(0)
	gen.Program(2).Walk(gen.Section(0), params.LineSize, params.LineSize, 1, workload.Write, 0)
	gen.Program(2).Barrier(1)
	gen.Program(1).Barrier(1)
	gen.Program(1).Walk(gen.Section(0), params.LineSize, params.LineSize, 1, workload.Read, 0)
	_, st := run(t, params.CCNUMA, gen, 50)
	if st.Nodes[1].Invalidations != 1 {
		t.Errorf("node 1 invalidations = %d, want 1", st.Nodes[1].Invalidations)
	}
	// Node 1's second read was satisfied remotely (its L1 copy died).
	if st.Nodes[1].TotalMisses() != 2 {
		t.Errorf("node 1 misses = %d, want 2", st.Nodes[1].TotalMisses())
	}
}

func TestUtilizationBounded(t *testing.T) {
	gen, err := workload.New("uniform", 16)
	if err != nil {
		t.Fatal(err)
	}
	m, st := run(t, params.CCNUMA, gen, 50)
	if st.ExecTime == 0 {
		t.Fatal("no exec time")
	}
	for i := 0; i < gen.Nodes(); i++ {
		bus, mem, dir, port := m.Utilization(i)
		if bus > st.ExecTime || dir > st.ExecTime || port > st.ExecTime {
			t.Errorf("node %d: single resource busier than the whole run", i)
		}
		if mem > 4*st.ExecTime {
			t.Errorf("node %d: memory banks busier than 4x run", i)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	for _, arch := range params.AllArchs() {
		gen1, _ := workload.New("uniform", 16)
		gen2, _ := workload.New("uniform", 16)
		_, a := run(t, arch, gen1, 60)
		_, b := run(t, arch, gen2, 60)
		if a.ExecTime != b.ExecTime {
			t.Errorf("%v: runs differ: %d vs %d", arch, a.ExecTime, b.ExecTime)
		}
		for i := range a.Nodes {
			if a.Nodes[i] != b.Nodes[i] {
				t.Errorf("%v: node %d stats differ", arch, i)
			}
		}
	}
}

func TestTable6Plumbing(t *testing.T) {
	gen, err := workload.New("hotcold", 16)
	if err != nil {
		t.Fatal(err)
	}
	_, st := run(t, params.CCNUMA, gen, 50)
	if st.RemotePages == 0 {
		t.Error("no remote pages recorded")
	}
	if st.RelocatedPages > st.RemotePages {
		t.Error("more relocated than remote pages")
	}
}

// interpreted serves a generator's programs through the interpreter, so
// the machine must wrap every node's stream (workload.Chunked).
type interpreted struct{ *workload.Programs }

func (g interpreted) Stream(n int) workload.Stream { return g.Program(n).Interpreted() }

// TestInterpretedStreamsMatchCompiled runs workloads from their compiled
// streams and from the same programs' interpreted streams, which reach the
// machine wrapped and never report a walk, and requires byte-identical
// statistics on every architecture: the wrapper is a pure change of
// source, and the walk skip the compiled streams allow changes nothing.
func TestInterpretedStreamsMatchCompiled(t *testing.T) {
	apps := []string{"critsec", "resident", "uniform"}
	if !testing.Short() {
		apps = append(apps, "radix", "barnes")
	}
	for _, app := range apps {
		gen, err := workload.New(app, 8)
		if err != nil {
			t.Fatal(err)
		}
		progs, ok := gen.(*workload.Programs)
		if !ok {
			t.Fatalf("%s: generator %T is not a *workload.Programs", app, gen)
		}
		for _, arch := range params.AllArchs() {
			cfg := Config{Arch: arch, Pressure: 70, MaxCycles: 1 << 40}
			want := runStats(t, cfg, progs)
			if got := runStats(t, cfg, interpreted{progs}); !bytes.Equal(got, want) {
				t.Errorf("%s/%v: interpreted-stream stats diverge from compiled\ngot:  %s\nwant: %s", app, arch, got, want)
			}
		}
	}
}
