package workload

import (
	"ascoma/internal/addr"
	"ascoma/internal/params"
)

const (
	em3dHomePages = 512 // ~2 MB of graph values per node
	em3dPrivPages = 8
	em3dIters     = 5
	em3dNeighbors = 4  // remote sections with cross edges
	em3dRemFrac   = 64 // pages read per neighbor section (~= 15% remote edges)
	em3dThink     = 6
)

// NewEm3d builds em3d at the given scale divisor.
//
// It models the Split-C em3d electromagnetic-wave kernel (76K graph
// nodes, 15% remote edges in the paper). Per Section 5: "for em3d, most of
// the remote pages ever accessed are in the node's working set, i.e., they
// are 'hot' pages" — approximately 85% of remote pages are eligible for
// relocation, and R-NUMA begins to thrash above ~65% memory pressure
// because the hot remote set exceeds the free page pool.
//
// Shape: a bipartite-graph sweep. Each iteration a node updates its own
// values (read-modify-write) and reads neighbor values; 15% of edges cross
// node boundaries, concentrated on four neighbor nodes, so each node
// repeatedly reads a stable set of remote pages that together exceed the
// page cache at high pressure.
func NewEm3d(scale int) Generator {
	nodes := 8
	home := scaled(em3dHomePages, scale, 16)
	remPer := scaled(em3dRemFrac, scale, 4)
	if remPer > home {
		remPer = home
	}
	b := NewPrograms("em3d", nodes, home, em3dPrivPages)

	barrier := 0
	for n := 0; n < nodes; n++ {
		pr := b.Program(n)
		for it := 0; it < em3dIters; it++ {
			// Private edge lists.
			pr.WalkRW(addr.PrivateRegion(n), pageBytes(em3dPrivPages), params.LineSize, 1, 8, 2)
			// Update own E/H values.
			pr.WalkRW(b.Section(n), pageBytes(home), params.LineSize, 1, 2, em3dThink)
			// Read remote neighbor values: a stable chunk from each of
			// four neighbor sections. Revisiting the same chunk every
			// iteration makes these pages hot. Graph gathers follow
			// edge lists, so within a page the accesses are irregular —
			// block-strided, beyond the RAC's reach.
			offsets := [em3dNeighbors]int{1, 2, nodes - 1, nodes - 2}
			for _, d := range offsets {
				r := (n + d) % nodes
				if r == n {
					continue
				}
				off := pageBytes((n * 7) % (home - remPer + 1))
				pr.Walk(b.Section(r)+addrOf(off), pageBytes(remPer), params.BlockSize, 3, Read, em3dThink)
			}
			pr.Barrier(barrier)
			barrier++
		}
	}
	return b
}

func init() { Register("em3d", NewEm3d) }
