package workload

import (
	"ascoma/internal/addr"
	"ascoma/internal/params"
)

const (
	barnesHomePages  = 128 // ~0.5 MB of bodies per node
	barnesPrivPages  = 8
	barnesIters      = 6
	barnesWindowFrac = 4 // read 1/4 of each remote section per iteration
	barnesThinkOwn   = 8
	barnesThinkForce = 20 // compute-intensive force phase
)

// NewBarnes builds barnes at the given scale divisor.
//
// It models the SPLASH-2 barnes N-body application (16K particles in
// the paper). Its characteristics per Section 5: "Barnes exhibits very high
// spatial locality. It accesses large dense regions of remote memory, and
// thus can make good use of a local S-COMA page cache. ... most of the
// remote pages that are accessed are part of the working set and 'hot' for
// long periods of execution." It is also compute-intensive (high think
// time) with a small home footprint (~0.5 MB/node). The paper observed
// thrashing beginning at 50% memory pressure and did not simulate barnes
// above 70%.
//
// Shape: each iteration every node updates its own bodies (read-modify-
// write sweep) and then makes two dense read passes over a stable window of
// every other node's bodies — the force-computation walk of the tree. The
// second pass re-fetches blocks evicted from the tiny L1, which is what
// accumulates the refetch counts that make these pages hot.
func NewBarnes(scale int) Generator {
	nodes := 8
	home := scaled(barnesHomePages, scale, 16)
	b := NewPrograms("barnes", nodes, home, barnesPrivPages)

	window := home / barnesWindowFrac // pages read from each remote section
	if window < 2 {
		window = 2
	}
	barrier := 0
	for n := 0; n < nodes; n++ {
		pr := b.Program(n)
		for it := 0; it < barnesIters; it++ {
			// Private bookkeeping (tree construction scratch).
			pr.WalkRW(addr.PrivateRegion(n), pageBytes(barnesPrivPages), params.LineSize, 1, 4, 2)
			// Update own bodies.
			pr.WalkRW(b.Section(n), pageBytes(home), params.LineSize, 1, 4, barnesThinkOwn)
			// Force computation: two read passes over a stable window
			// of each remote section. The window is anchored per node so
			// the remote working set is stable across iterations
			// (long-lived hot pages). The tree walk is dense at page
			// granularity but irregular within a page — block-strided
			// here — so the single-entry RAC cannot amortize it; only a
			// page-grained cache can. The walk interleaves small chunks
			// across the remote sections, as a real tree traversal
			// does — it does not drain one node's bodies before touching
			// the next — which also spreads the request load over all
			// home directories.
			chunk := 4
			if chunk > window {
				chunk = window
			}
			for pass := 0; pass < 2; pass++ {
				for c := 0; c < window; c += chunk {
					for j := 1; j < nodes; j++ {
						r := (n + j) % nodes
						off := pageBytes((n*window/2)%(home-window+1) + c)
						pr.Walk(b.Section(r)+addrOf(off), pageBytes(min(chunk, window-c)), params.BlockSize, 1, Read, barnesThinkForce)
					}
				}
			}
			pr.Barrier(barrier)
			barrier++
		}
	}
	return b
}

func init() { Register("barnes", NewBarnes) }
