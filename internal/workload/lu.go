package workload

import "ascoma/internal/params"

const (
	luNodes      = 4
	luHomePages  = 128 // 512 total pages = 2 MB matrix
	luPrivPages  = 8
	luPanelPages = 16
	luPasses     = 8 // read passes over the pivot panel per phase
	luThink      = 6
)

// NewLU builds lu at the given scale divisor.
//
// It models the SPLASH-2 contiguous LU factorization (512x512 matrix,
// 16x16 blocks; the paper ran it on 4 nodes "due to its small default
// problem size and long execution time"). Per Section 5: "in lu, each
// process accesses every remote page enough times to warrant remapping,
// similar to radix. However, every process uses each set of shared pages in
// the problem set for only a short time before moving to another set of
// pages. Thus ... only a small set of remote pages are active at any time,
// and a small page cache can hold each process's active working set
// completely." All hybrids beat CC-NUMA by ~20% at every pressure.
//
// Shape: the factorization proceeds in panel phases. In phase k the owner
// factors its pivot panel; every node then makes several read passes over
// that panel, interleaved with read-modify-write updates of its own
// trailing blocks — the interleaving evicts panel lines from the small L1,
// generating the refetches that make the (briefly) active panel hot.
func NewLU(scale int) Generator {
	home := scaled(luHomePages, scale, 16)
	panel := scaled(luPanelPages, scale, 2)
	if panel > home {
		panel = home
	}
	phases := (home / panel) * luNodes // every page is a panel page exactly once
	b := NewPrograms("lu", luNodes, home, luPrivPages)

	for n := 0; n < luNodes; n++ {
		pr := b.Program(n)
		for k := 0; k < phases; k++ {
			owner := k % luNodes
			panelStart := (k / luNodes) * panel
			panelBase := b.Section(owner) + addrOf(pageBytes(panelStart))

			if owner == n {
				// Factor the pivot panel. The other nodes wait at the
				// barrier below — lu's inherent load imbalance.
				pr.WalkRW(panelBase, pageBytes(panel), params.LineSize, 2, 2, luThink)
			}
			// The panel must be fully factored before anyone consumes it.
			pr.Barrier(2 * k)

			// Trailing update: each pass reads the whole panel (down
			// block columns — block-strided, beyond the RAC) and then
			// updates one chunk of the node's own blocks. The own-chunk
			// sweep spans the L1, so every pass refetches the panel:
			// that is the reuse a page-grained cache captures and a
			// processor cache cannot.
			ownChunk := home / 16
			if ownChunk < 1 {
				ownChunk = 1
			}
			for pass := 0; pass < luPasses; pass++ {
				pr.Walk(panelBase, pageBytes(panel), params.BlockSize, 1, Read, luThink)
				ownOff := ((k + pass) * ownChunk / 2) % (home - ownChunk + 1)
				if n == owner && ownOff < panelStart+panel && ownOff+ownChunk > panelStart {
					// The trailing update never rewrites the live
					// panel; shift the owner's chunk past it.
					ownOff = (panelStart + panel) % (home - ownChunk + 1)
				}
				pr.WalkRW(b.Section(n)+addrOf(pageBytes(ownOff)), pageBytes(ownChunk), params.LineSize, 1, 3, luThink)
			}
			pr.Barrier(2*k + 1)
		}
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func init() { Register("lu", NewLU) }
