package machine

import (
	"testing"

	"ascoma/internal/addr"
	"ascoma/internal/params"
	"ascoma/internal/vm"
	"ascoma/internal/workload"
)

// TestASCOMARecoversAcrossPhaseChange exercises the paper's recovery claim
// end to end: "Should the number of hot pages drop, e.g., because of a
// phase change in the program that causes a number of hot pages to grow
// cold, the pageout daemon will detect it ... At this point, it can reduce
// the refetch threshold."
//
// Phase 1 hammers hot set A (bigger than the page cache, driving the
// back-off). Phase 2 abandons A entirely and hammers a smaller hot set B
// that fits: the daemon reclaims A's now-cold pages, recovery lifts the
// back-off, and B ends up cached in S-COMA mode.
func TestASCOMARecoversAcrossPhaseChange(t *testing.T) {
	const pagesA, pagesB = 28, 4
	gen := newProbe(2, pagesA+pagesB, 8)
	pr := gen.Program(1)
	baseA := gen.Section(0)
	baseB := gen.Section(0) + addr.GVA(pagesA)*params.PageSize

	// Phase 1: set A is hot and oversized -> thrash -> back-off.
	for it := 0; it < 12; it++ {
		pr.Walk(baseA, pagesA*params.PageSize, params.BlockSize, 1, workload.Read, 0)
		pr.Walk(addr.PrivateRegion(1), 8*params.PageSize, params.LineSize, 1, workload.Read, 0)
	}
	// Phase 2: set B is hot and small; A is never touched again. The
	// phase must run long enough for several daemon intervals.
	for it := 0; it < 60; it++ {
		pr.Walk(baseB, pagesB*params.PageSize, params.BlockSize, 1, workload.Read, 0)
		pr.Walk(addr.PrivateRegion(1), 8*params.PageSize, params.LineSize, 1, workload.Read, 20)
	}

	m, st := run(t, params.ASCOMA, gen, 80)
	n := &st.Nodes[1]
	if n.ThrashEvents == 0 {
		t.Fatal("phase 1 never drove the back-off; probe too small")
	}
	// After recovery, set B must be fully S-COMA-resident.
	cached := 0
	for i := 0; i < pagesB; i++ {
		pte := m.NodeVM(1).Lookup(addr.PageOf(baseB) + addr.Page(i))
		if pte != nil && pte.Mode == vm.ModeSCOMA {
			cached++
		}
	}
	if cached < pagesB {
		t.Errorf("only %d of %d phase-2 pages cached after the phase change", cached, pagesB)
	}
	// And most of set A was reclaimed (downgraded).
	if n.Downgrades < pagesA/2 {
		t.Errorf("only %d downgrades; the daemon did not reclaim the dead set", n.Downgrades)
	}
}
