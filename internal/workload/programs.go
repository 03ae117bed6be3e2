package workload

import (
	"ascoma/internal/addr"
	"ascoma/internal/params"
)

// Programs is the program-backed Generator every built-in workload is: a
// block-distributed shared region of nodes sections, section i homePages
// pages at node i, a private region of privPages pages per node, and one
// Program per node. A builder appends to the programs before the first
// Stream call; after that the generator is immutable and safe to share
// across concurrent runs (New memoizes generators).
type Programs struct {
	name      string
	nodes     int
	homePages int // shared home pages per node
	privPages int // private pages per node
	progs     []*Program
}

// NewPrograms lays out a generator with an empty program per node.
func NewPrograms(name string, nodes, homePages, privPages int) *Programs {
	g := &Programs{
		name:      name,
		nodes:     nodes,
		homePages: homePages,
		privPages: privPages,
		progs:     make([]*Program, nodes),
	}
	for i := range g.progs {
		g.progs[i] = &Program{}
	}
	return g
}

// Name returns the workload name.
func (g *Programs) Name() string { return g.name }

// Nodes returns the node count.
func (g *Programs) Nodes() int { return g.nodes }

// HomePagesPerNode returns the pages of each node's section.
func (g *Programs) HomePagesPerNode() int { return g.homePages }

// PrivatePagesPerNode returns the private footprint per node.
func (g *Programs) PrivatePagesPerNode() int { return g.privPages }

// Place assigns each node's section to that node, modeling the home-page
// distribution established before the timed parallel phase.
func (g *Programs) Place(place func(p addr.Page, home int)) {
	for i := 0; i < g.nodes; i++ {
		placeSection(place, g.Section(i), g.homePages, i)
	}
}

// Stream returns node i's reference stream.
func (g *Programs) Stream(node int) Stream { return g.progs[node].Stream() }

// Program returns node n's program, for the builder to append to.
func (g *Programs) Program(n int) *Program { return g.progs[n] }

// Section returns the base address of node n's home section. Sections are
// contiguous from addr.SharedBase, so Section(0) also starts the one
// global array they form together.
func (g *Programs) Section(n int) addr.GVA {
	return addr.SharedBase + addrOf(pageBytes(n*g.homePages))
}

// placeSection assigns pages pages starting at base to home.
func placeSection(place func(addr.Page, int), base addr.GVA, pages, home int) {
	p0 := addr.PageOf(base)
	for i := 0; i < pages; i++ {
		place(p0+addr.Page(i), home)
	}
}

// pageBytes converts a page count to bytes.
func pageBytes(pages int) int64 { return int64(pages) * params.PageSize }

// addrOf converts a byte offset to an address delta.
func addrOf(off int64) addr.GVA { return addr.GVA(off) }

// seedFor derives a deterministic scatter seed from workload identity.
func seedFor(app string, node, iter int) uint64 {
	h := uint64(1469598103934665603) // FNV-1a offset basis
	mix := func(x uint64) {
		h ^= x
		h *= 1099511628211
	}
	for i := 0; i < len(app); i++ {
		mix(uint64(app[i]))
	}
	mix(uint64(node) + 0x1000)
	mix(uint64(iter) + 0x2000)
	return h
}
