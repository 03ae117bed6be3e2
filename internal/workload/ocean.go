package workload

import (
	"ascoma/internal/addr"
	"ascoma/internal/params"
)

const (
	oceanHomePages = 512
	oceanPrivPages = 8
	oceanIters     = 8
	oceanBoundary  = 4  // boundary pages exchanged with each neighbor
	oceanWindow    = 20 // remote pages touched once per reduction
	oceanThink     = 4
)

// NewOcean builds ocean at the given scale divisor.
//
// It models the SPLASH-2 ocean simulation (258x258 grid). Per Section 5:
// "Even at 90% memory pressure, only 3% of cache misses are to remote data,
// and most such accesses can be supplied from a local S-COMA page or the
// RAC. As a result, all of the architectures other than pure S-COMA ...
// perform within a few percent of one another." Pure S-COMA degrades at
// high pressure for the same reason as fft: occasionally-touched remote
// pages must each be backed by a local page.
//
// Shape: a stencil sweep over the node's own grid partition each iteration,
// a heavily reused exchange of a few boundary pages with the two
// neighboring partitions (the small hot remote set), and a light
// global-reduction read that touches a rotating window of remote pages only
// once each (the streaming set that hurts pure S-COMA).
func NewOcean(scale int) Generator {
	nodes := 8
	home := scaled(oceanHomePages, scale, 16)
	boundary := scaled(oceanBoundary, scale, 1)
	window := scaled(oceanWindow, scale, 2)
	if window > home-1 {
		window = home - 1
	}
	b := NewPrograms("ocean", nodes, home, oceanPrivPages)

	barrier := 0
	for n := 0; n < nodes; n++ {
		pr := b.Program(n)
		for it := 0; it < oceanIters; it++ {
			// Private scratch (stencil coefficients).
			pr.WalkRW(addr.PrivateRegion(n), pageBytes(oceanPrivPages), params.LineSize, 1, 8, 2)
			// Stencil sweep over the local partition.
			pr.WalkRW(b.Section(n), pageBytes(home), params.LineSize, 1, 3, oceanThink)
			// Boundary exchange with both neighbors: a tiny hot remote
			// set reread several times per iteration.
			up := (n + 1) % nodes
			down := (n + nodes - 1) % nodes
			pr.Walk(b.Section(up), pageBytes(boundary), params.LineSize, 4, Read, oceanThink)
			lastOff := pageBytes(home - boundary)
			pr.Walk(b.Section(down)+addrOf(lastOff), pageBytes(boundary), params.LineSize, 4, Read, oceanThink)
			// Global reduction: stream a rotating window of one remote
			// section once (touch-once pages that pure S-COMA must
			// still back with local pages).
			r := (n + 2 + it) % nodes
			if r != n {
				off := pageBytes((it * window) % (home - window + 1))
				pr.Walk(b.Section(r)+addrOf(off), pageBytes(window), params.LineSize, 1, Read, oceanThink)
			}
			pr.Barrier(barrier + it)
		}
	}
	return b
}

func init() { Register("ocean", NewOcean) }
