package machine

import (
	"testing"

	"ascoma/internal/addr"
	"ascoma/internal/core"
	"ascoma/internal/directory"
	"ascoma/internal/params"
	"ascoma/internal/stats"
	"ascoma/internal/vm"
	"ascoma/internal/workload"
)

// TestSCOMAOwnershipUpgrade: a write to a clean page-cache block needs only
// write permission — the data is already local, so the miss classifies as
// SCOMA even though the ownership request crosses the network.
func TestSCOMAOwnershipUpgrade(t *testing.T) {
	gen := newProbe(2, 1, 8)
	// Read fills the page cache (clean), then write the same block after
	// the L1 copy has been evicted by a private walk.
	gen.Program(1).Walk(gen.Section(0), params.LineSize, params.LineSize, 1, workload.Read, 0)
	gen.Program(1).Walk(addr.PrivateRegion(1), 8*params.PageSize, params.LineSize, 1, workload.Read, 0)
	gen.Program(1).Walk(gen.Section(0), params.LineSize, params.LineSize, 1, workload.Write, 0)
	m, st := run(t, params.SCOMA, gen, 10)
	n := &st.Nodes[1]
	if n.Misses[stats.SComa] != 1 {
		t.Errorf("SCOMA misses = %d, want 1 (the ownership upgrade)", n.Misses[stats.SComa])
	}
	pte := m.NodeVM(1).Lookup(addr.PageOf(gen.Section(0)))
	if pte == nil || !pte.BlockOwned(0) {
		t.Error("block not owned after the upgrade")
	}
}

// TestSCOMADirtyBlockAbsorbsWrites: once owned, further writes to the
// block's other lines are satisfied by the local page cache.
func TestSCOMADirtyBlockAbsorbsWrites(t *testing.T) {
	gen := newProbe(2, 1, 8)
	// Write line 0 (remote fetch with ownership), flush L1 via private
	// walk, then write line 1 of the same block: page cache, owned.
	gen.Program(1).Walk(gen.Section(0), params.LineSize, params.LineSize, 1, workload.Write, 0)
	gen.Program(1).Walk(addr.PrivateRegion(1), 8*params.PageSize, params.LineSize, 1, workload.Read, 0)
	gen.Program(1).Walk(gen.Section(0)+params.LineSize, params.LineSize, params.LineSize, 1, workload.Write, 0)
	_, st := run(t, params.SCOMA, gen, 10)
	n := &st.Nodes[1]
	if n.Misses[stats.SComa] != 1 {
		t.Errorf("SCOMA misses = %d, want 1 (owned block write)", n.Misses[stats.SComa])
	}
	if n.Misses[stats.Cold] != 1 {
		t.Errorf("COLD misses = %d, want 1 (the initial write fetch)", n.Misses[stats.Cold])
	}
}

// TestRACOwnershipUpgrade: a CC-NUMA write to a block the RAC holds clean
// upgrades in place and classifies as a RAC hit.
func TestRACOwnershipUpgrade(t *testing.T) {
	gen := newProbe(2, 1, 0)
	// Read line 0 (fills RAC with the block), then write line 1: present
	// in the RAC but unowned -> ownership upgrade, data from the RAC.
	gen.Program(1).Walk(gen.Section(0), params.LineSize, params.LineSize, 1, workload.Read, 0)
	gen.Program(1).Walk(gen.Section(0)+params.LineSize, params.LineSize, params.LineSize, 1, workload.Write, 0)
	_, st := run(t, params.CCNUMA, gen, 50)
	n := &st.Nodes[1]
	if n.Misses[stats.RAC] != 1 {
		t.Errorf("RAC misses = %d, want 1 (ownership upgrade through the RAC)", n.Misses[stats.RAC])
	}
}

// TestRACWriteHitAfterWriteFetch: a write fetch owns the block; the next
// write to another line hits the RAC directly.
func TestRACWriteHitAfterWriteFetch(t *testing.T) {
	gen := newProbe(2, 1, 0)
	gen.Program(1).Walk(gen.Section(0), 2*params.LineSize, params.LineSize, 1, workload.Write, 0)
	_, st := run(t, params.CCNUMA, gen, 50)
	n := &st.Nodes[1]
	if n.Misses[stats.Cold] != 1 || n.Misses[stats.RAC] != 1 {
		t.Errorf("miss mix %+v, want 1 COLD (write fetch) + 1 RAC (owned write hit)", n.Misses)
	}
}

// TestDirtyRemoteDataForwarded: a read of a block dirty at a third node is
// supplied by three-hop forwarding and the owner keeps a clean copy. Node
// 2's read is the only traffic after the barrier, so its stall is exactly
// the uncontended three-hop path: request to the home (node 0), forward to
// the owner (node 1), the owner's memory, reply to the requester.
func TestDirtyRemoteDataForwarded(t *testing.T) {
	gen := newProbe(3, 1, 0)
	gen.Program(1).Walk(gen.Section(0), params.LineSize, params.LineSize, 1, workload.Write, 0)
	gen.Program(1).Barrier(0)
	gen.Program(2).Barrier(0)
	gen.Program(2).Walk(gen.Section(0), params.LineSize, params.LineSize, 1, workload.Read, 0)
	m, st := run(t, params.CCNUMA, gen, 50)
	if st.Nodes[2].TotalMisses() != 1 {
		t.Fatalf("node 2 misses = %d", st.Nodes[2].TotalMisses())
	}
	p := m.p
	hop := func(from, to int) int64 { return m.net.Latency(from, to) + p.NetPortOccupancy }
	want := 2*(p.BusCycles+p.DSMProcCycles) + hop(2, 0) + p.DirCycles + hop(0, 1) +
		p.LocalMemCycles + hop(1, 2) + p.L1HitCycles
	if got := st.Nodes[2].Time[stats.UShMem]; got != want {
		t.Errorf("node 2 U-SH-MEM = %d, want the three-hop latency %d", got, want)
	}
	state, copyset := m.Directory().State(addr.BlockOf(gen.Section(0)))
	if state != directory.SharedState || copyset != 1<<1|1<<2 {
		t.Errorf("directory after the read: %v copyset %b, want Shared with nodes 1 and 2", state, copyset)
	}
}

// TestPageoutDaemonReclaimsColdPages: under S-COMA pressure the daemon
// second-chances cold pages back to the pool.
func TestPageoutDaemonReclaimsColdPages(t *testing.T) {
	gen := newProbe(2, 16, 0)
	// Stream many remote pages once (they go cold), then keep one page
	// hot for a while so daemon passes occur.
	gen.Program(1).Walk(gen.Section(0), 16*params.PageSize, params.PageSize, 1, workload.Read, 0)
	gen.Program(1).Walk(gen.Section(0), params.LineSize, params.LineSize, 400, workload.Read, 600)
	_, st := run(t, params.SCOMA, gen, 85)
	n := &st.Nodes[1]
	if n.DaemonRuns == 0 {
		t.Fatal("daemon never ran under pressure")
	}
	if n.DaemonReclaimed == 0 {
		t.Error("daemon reclaimed nothing despite cold streamed pages")
	}
}

// TestAblationPolicyFactory: the machine honors an AS-COMA ablation.
func TestAblationPolicyFactory(t *testing.T) {
	gen := newProbe(2, 4, 0)
	gen.Program(1).Walk(gen.Section(0), 4*params.PageSize, params.PageSize, 1, workload.Read, 0)
	cfg := Config{Arch: params.ASCOMA, Pressure: 10, Ablation: core.NoSCOMAAlloc}
	m, err := New(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// With NoSCOMAAlloc the faulting remote pages stay in CC-NUMA mode.
	for i := 0; i < 4; i++ {
		pte := m.NodeVM(1).Lookup(addr.PageOf(gen.Section(0)) + addr.Page(i))
		if pte == nil || pte.Mode != vm.ModeNUMA {
			t.Errorf("page %d mode = %v, want numa under NoSCOMAAlloc", i, pte.Mode)
		}
	}
}

// TestASCOMAInitialAllocationUsesPool: at low pressure AS-COMA maps
// faulting remote pages straight into S-COMA mode — no refetches needed.
func TestASCOMAInitialAllocationUsesPool(t *testing.T) {
	gen := newProbe(2, 4, 0)
	gen.Program(1).Walk(gen.Section(0), 4*params.PageSize, params.PageSize, 1, workload.Read, 0)
	m, st := run(t, params.ASCOMA, gen, 10)
	for i := 0; i < 4; i++ {
		pte := m.NodeVM(1).Lookup(addr.PageOf(gen.Section(0)) + addr.Page(i))
		if pte == nil || pte.Mode != vm.ModeSCOMA {
			t.Fatalf("page %d not S-COMA mapped at low pressure", i)
		}
	}
	if st.Nodes[1].Upgrades != 0 {
		t.Error("upgrades happened despite direct S-COMA allocation")
	}
}

// TestInvalidationClearsPageCache: a remote write must invalidate another
// node's page-cache block, and the victim's next read refetches remotely.
func TestInvalidationClearsPageCache(t *testing.T) {
	gen := newProbe(3, 1, 0)
	gen.Program(1).Walk(gen.Section(0), params.LineSize, params.LineSize, 1, workload.Read, 0)
	gen.Program(1).Barrier(0)
	gen.Program(2).Barrier(0)
	gen.Program(2).Walk(gen.Section(0), params.LineSize, params.LineSize, 1, workload.Write, 0)
	gen.Program(2).Barrier(1)
	gen.Program(1).Barrier(1)
	gen.Program(1).Walk(gen.Section(0), params.LineSize, params.LineSize, 1, workload.Read, 0)
	m, st := run(t, params.SCOMA, gen, 10)
	pte := m.NodeVM(1).Lookup(addr.PageOf(gen.Section(0)))
	if pte == nil || pte.Mode != vm.ModeSCOMA {
		t.Fatal("node 1 page not S-COMA")
	}
	if st.Nodes[1].Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", st.Nodes[1].Invalidations)
	}
	// Both of node 1's misses went remote (fill + refill after inval);
	// the block was refetched so its valid bit is set again.
	if !pte.BlockValid(0) {
		t.Error("block not refilled after invalidation")
	}
	if st.Nodes[1].Misses[stats.SComa] != 0 {
		t.Errorf("page-cache hits = %d, want 0 (copy was invalidated between reads)",
			st.Nodes[1].Misses[stats.SComa])
	}
}

// TestFreePoolNeverNegative: pool accounting survives a pressured run with
// upgrades, downgrades, and daemon activity.
func TestFreePoolNeverNegative(t *testing.T) {
	gen, err := workload.New("uniform", 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, arch := range params.AllArchs() {
		m, _ := run(t, arch, gen, 90)
		for i := 0; i < gen.Nodes(); i++ {
			if free := m.NodeVM(i).Free(); free < 0 {
				t.Errorf("%v node %d: free pool %d", arch, i, free)
			}
		}
	}
}
