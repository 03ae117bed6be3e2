package machine

import (
	"testing"

	"ascoma/internal/addr"
	"ascoma/internal/params"
	"ascoma/internal/stats"
	"ascoma/internal/vm"
	"ascoma/internal/workload"
)

// hotRemotePage builds a probe where node 1 hammers one of node 0's pages
// hard enough to cross the relocation threshold several times over.
func hotRemotePage() *workload.Programs {
	gen := newProbe(2, 1, 8)
	for i := 0; i < 8; i++ {
		gen.Program(1).Walk(gen.Section(0), params.PageSize, params.BlockSize, 1, workload.Read, 0)
		gen.Program(1).Walk(addr.PrivateRegion(1), 8*params.PageSize, params.LineSize, 1, workload.Read, 0)
	}
	return gen
}

func TestMigrationMovesHome(t *testing.T) {
	gen := hotRemotePage()
	m, st := run(t, params.MIGNUMA, gen, 50)
	page := addr.PageOf(gen.Section(0))
	if st.Nodes[1].Migrations != 1 {
		t.Fatalf("migrations = %d, want 1", st.Nodes[1].Migrations)
	}
	if home := m.Directory().Home(page); home != 1 {
		t.Errorf("home = %d, want 1 after migration", home)
	}
	// Node 1 now maps the page as home; node 0 as NUMA.
	if pte := m.NodeVM(1).Lookup(page); pte == nil || pte.Mode != vm.ModeHome {
		t.Errorf("node 1 mode = %v, want home", pte.Mode)
	}
	if pte := m.NodeVM(0).Lookup(page); pte == nil || pte.Mode != vm.ModeNUMA {
		t.Errorf("node 0 mode = %v, want numa", pte.Mode)
	}
	// Physical-page accounting moved one page from node 0 to node 1.
	if m.NodeVM(1).HomePages != gen.HomePagesPerNode()+gen.PrivatePagesPerNode()+1 {
		t.Errorf("node 1 home pages = %d", m.NodeVM(1).HomePages)
	}
	if m.NodeVM(0).HomePages != gen.HomePagesPerNode()+gen.PrivatePagesPerNode()-1 {
		t.Errorf("node 0 home pages = %d", m.NodeVM(0).HomePages)
	}
	// After the migration, node 1's accesses are HOME-class.
	if st.Nodes[1].Misses[stats.Home] == 0 {
		t.Error("no home misses after migration")
	}
	if st.Nodes[1].Time[stats.KOverhead] == 0 {
		t.Error("migration charged no kernel overhead")
	}
}

func TestMigrationDeniedWithoutFreePage(t *testing.T) {
	// Two hot remote pages but only one free physical page at 99%
	// pressure: the first migration adopts it, the second is denied.
	gen := newProbe(2, 2, 8)
	for i := 0; i < 8; i++ {
		gen.Program(1).Walk(gen.Section(0), 2*params.PageSize, params.BlockSize, 1, workload.Read, 0)
		gen.Program(1).Walk(addr.PrivateRegion(1), 8*params.PageSize, params.LineSize, 1, workload.Read, 0)
	}
	m, err := New(Config{Arch: params.MIGNUMA, Pressure: 99, MaxCycles: 1 << 40}, gen)
	if err != nil {
		t.Fatal(err)
	}
	if free := m.NodeVM(1).Free(); free != 1 {
		t.Fatalf("test premise broken: free pool = %d, want 1", free)
	}
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Nodes[1].Migrations != 1 {
		t.Errorf("migrations = %d, want exactly 1 (pool held one page)", st.Nodes[1].Migrations)
	}
	if st.Nodes[1].RelocDenied == 0 {
		t.Error("denied migration not counted")
	}
}

func TestMigrationCoherenceAfterMove(t *testing.T) {
	// Three nodes: 1 migrates the page away from 0, then 2 reads it. The
	// read must be served by the new home without stale state.
	gen := newProbe(3, 1, 8)
	for i := 0; i < 8; i++ {
		gen.Program(1).Walk(gen.Section(0), params.PageSize, params.BlockSize, 1, workload.Read, 0)
		gen.Program(1).Walk(addr.PrivateRegion(1), 8*params.PageSize, params.LineSize, 1, workload.Read, 0)
	}
	gen.Program(1).Barrier(0)
	gen.Program(2).Barrier(0)
	gen.Program(2).Walk(gen.Section(0), params.PageSize, params.BlockSize, 1, workload.Read, 0)
	m, st := run(t, params.MIGNUMA, gen, 50)
	if st.Nodes[1].Migrations == 0 {
		t.Skip("page did not migrate in this configuration")
	}
	if home := m.Directory().Home(addr.PageOf(gen.Section(0))); home != 1 {
		t.Fatalf("home = %d", home)
	}
	// Node 2 read all 32 blocks remotely from the new home.
	if st.Nodes[2].TotalMisses() != int64(params.BlocksPerPage) {
		t.Errorf("node 2 misses = %d, want %d", st.Nodes[2].TotalMisses(), params.BlocksPerPage)
	}
	if st.Nodes[2].Misses[stats.Home] != 0 {
		t.Error("node 2 classified remote reads as HOME")
	}
}

func TestTimeConservationMIGNUMA(t *testing.T) {
	gen, err := workload.New("mismatch", 16)
	if err != nil {
		t.Fatal(err)
	}
	_, st := run(t, params.MIGNUMA, gen, 50)
	for i := range st.Nodes {
		n := &st.Nodes[i]
		if n.TotalTime() != n.FinishTime {
			t.Errorf("node %d: categories %d != finish %d", i, n.TotalTime(), n.FinishTime)
		}
	}
}
