package workload

import (
	"sync"

	"ascoma/internal/addr"
	"ascoma/internal/params"
)

// The synthetic generators are small, fully parameterized workloads used by
// tests, examples, and ablation benchmarks. They cover the three access
// regimes the six applications combine: uniform random (radix-like),
// hot/cold skew (barnes/em3d-like), and streaming touch-once (fft-like).

// Synthetic is a configurable generator; build one with the fields you
// need and it satisfies Generator.
type Synthetic struct {
	WorkloadName string
	NumNodes     int
	HomePages    int // shared home pages per node
	PrivPages    int
	Iters        int

	// HotFraction of each node's remote window is re-read every
	// iteration; the rest is streamed once (0 = all hot).
	HotFraction float64
	// RemoteWindow is the number of remote pages each node touches per
	// remote section.
	RemoteWindow int
	// ScatterRefs per node per iteration issued uniformly over the whole
	// shared region (0 disables the scatter phase).
	ScatterRefs int64
	// WriteEvery makes every n'th reference a write (0 = reads only).
	WriteEvery int64
	// Think cycles per reference.
	Think int32

	buildOnce sync.Once
	sections  []addr.GVA
	progs     []*Program
}

// Name returns the workload name.
func (s *Synthetic) Name() string { return s.WorkloadName }

// Nodes returns the node count.
func (s *Synthetic) Nodes() int { return s.NumNodes }

// HomePagesPerNode returns the shared home footprint per node.
func (s *Synthetic) HomePagesPerNode() int { return s.HomePages }

// PrivatePagesPerNode returns the private footprint per node.
func (s *Synthetic) PrivatePagesPerNode() int { return s.PrivPages }

// Place assigns section i to node i.
func (s *Synthetic) Place(place func(p addr.Page, home int)) {
	s.build()
	for i, sec := range s.sections {
		PlacePages(place, sec, s.HomePages, i)
	}
}

// Stream returns node i's reference stream.
func (s *Synthetic) Stream(node int) Stream {
	s.build()
	return s.progs[node].Stream()
}

// build materializes the programs once; the sync.Once makes lazily-built
// synthetics safe to share across concurrent runs (workload.New memoizes
// generators).
func (s *Synthetic) build() { s.buildOnce.Do(s.buildLocked) }

func (s *Synthetic) buildLocked() {
	if s.NumNodes < 1 {
		s.NumNodes = 1
	}
	if s.HomePages < 1 {
		s.HomePages = 1
	}
	if s.Iters < 1 {
		s.Iters = 1
	}
	l := NewLayout()
	s.sections = l.Distributed(s.NumNodes, s.HomePages)
	s.progs = make([]*Program, s.NumNodes)
	totalBytes := pageBytes(s.HomePages * s.NumNodes)

	window := s.RemoteWindow
	if window > s.HomePages {
		window = s.HomePages
	}
	hot := int(float64(window) * s.HotFraction)

	for n := 0; n < s.NumNodes; n++ {
		pr := &Program{}
		s.progs[n] = pr
		for it := 0; it < s.Iters; it++ {
			if s.PrivPages > 0 {
				pr.WalkRW(addr.PrivateRegion(n), pageBytes(s.PrivPages), params.LineSize, 1, 4, s.Think)
			}
			// Own-section sweep.
			pr.WalkRW(s.sections[n], pageBytes(s.HomePages), params.LineSize, 1, 3, s.Think)
			// Remote phase.
			if window > 0 && s.NumNodes > 1 {
				r := (n + 1) % s.NumNodes
				if hot > 0 {
					// Hot window: stable across iterations.
					pr.Walk(s.sections[r], pageBytes(hot), params.BlockSize, 2, Read, s.Think)
				}
				if coldPages := window - hot; coldPages > 0 {
					// Streaming window: rotates so pages are touched once.
					off := (it * coldPages) % (s.HomePages - coldPages + 1)
					pr.Walk(s.sections[r]+addrOf(pageBytes(off)), pageBytes(coldPages), params.BlockSize, 1, Read, s.Think)
				}
			}
			if s.ScatterRefs > 0 {
				pr.ScatterRuns(s.sections[0], totalBytes, params.BlockSize, s.ScatterRefs, 2, s.WriteEvery, s.Think, seedFor(s.WorkloadName, n, it))
			}
			pr.Barrier(it)
		}
	}
}

// NewUniform is a radix-like generator: uniform scattered block touches
// over the whole shared region.
func NewUniform(scale int) Generator {
	return &Synthetic{
		WorkloadName: "uniform",
		NumNodes:     8,
		HomePages:    scaled(64, scale, 8),
		PrivPages:    4,
		Iters:        3,
		ScatterRefs:  int64(scaled(16384, scale, 1024)),
		WriteEvery:   16,
		Think:        4,
	}
}

// NewHotCold is a barnes/em3d-like generator: a hot remote window reread
// every iteration plus a light streaming tail.
func NewHotCold(scale int) Generator {
	return NewHotColdN(8, scale)
}

// NewHotColdN is NewHotCold with an explicit node count, for machine-size
// scaling studies (the simulator supports up to 64 nodes).
func NewHotColdN(nodes, scale int) Generator {
	return &Synthetic{
		WorkloadName: "hotcold",
		NumNodes:     nodes,
		HomePages:    scaled(128, scale, 8),
		PrivPages:    4,
		Iters:        4,
		RemoteWindow: scaled(64, scale, 4),
		HotFraction:  0.75,
		Think:        6,
	}
}

// NewStream is an fft-like generator: remote pages are touched exactly
// once per iteration with no reuse.
func NewStream(scale int) Generator {
	return &Synthetic{
		WorkloadName: "stream",
		NumNodes:     8,
		HomePages:    scaled(128, scale, 8),
		PrivPages:    4,
		Iters:        3,
		RemoteWindow: scaled(48, scale, 4),
		HotFraction:  0,
		Think:        4,
	}
}

// Mismatch models a badly-placed single-owner workload: every shared page
// is initially homed on node 0 (a serial initialization phase touched it
// first), but each page is thereafter used exclusively by one other node.
// This is the textbook case where dynamic page *migration* fixes placement
// permanently — the case the related work says migration succeeds at
// ("read-only or non-shared pages") — while CC-NUMA pays remote latency
// forever.
type Mismatch struct {
	nodes  int
	slice  int // pages used per node
	iters  int
	layout []addr.GVA
	progs  []*Program
}

// NewMismatch builds the generator at the given scale divisor.
func NewMismatch(scale int) Generator {
	m := &Mismatch{
		nodes: 8,
		slice: scaled(32, scale, 4),
		iters: 6,
	}
	l := NewLayout()
	m.layout = l.Distributed(m.nodes, m.slice)
	m.progs = make([]*Program, m.nodes)
	for n := 0; n < m.nodes; n++ {
		pr := &Program{}
		m.progs[n] = pr
		for it := 0; it < m.iters; it++ {
			if n > 0 {
				// Exclusive read-modify-write sweeps over this node's
				// slice; block-strided so the RAC cannot hide the
				// misplacement.
				pr.WalkRW(m.layout[n], pageBytes(m.slice), params.BlockSize, 2, 4, 6)
			} else {
				// Node 0 (the bad home) works only on its own slice.
				pr.WalkRW(m.layout[0], pageBytes(m.slice), params.BlockSize, 2, 4, 6)
			}
			pr.Barrier(it)
		}
	}
	return m
}

// Name returns "mismatch".
func (m *Mismatch) Name() string { return "mismatch" }

// Nodes returns the node count.
func (m *Mismatch) Nodes() int { return m.nodes }

// HomePagesPerNode returns the whole shared footprint: node 0 homes every
// page, so each node's physical memory is sized for the worst case.
func (m *Mismatch) HomePagesPerNode() int { return m.nodes * m.slice }

// PrivatePagesPerNode returns 4.
func (m *Mismatch) PrivatePagesPerNode() int { return 4 }

// Place homes every page at node 0 — the misplacement under study.
func (m *Mismatch) Place(place func(p addr.Page, home int)) {
	for _, base := range m.layout {
		PlacePages(place, base, m.slice, 0)
	}
}

// Stream returns node i's reference stream.
func (m *Mismatch) Stream(node int) Stream { return m.progs[node].Stream() }

// Resident models the compute phase of a cache-blocked application: each
// node repeatedly sweeps a small private tile that stays resident in its L1
// (a blocked matrix panel, a per-thread hash table), reads a neighbor's
// shared page between sweeps, and synchronizes at a barrier every few
// phases. The paper's six applications are measured in their
// communication-heavy phases, so none of the existing generators exercises
// the opposite regime — the L1-hit-dominated stretches where an
// execution-driven simulator spends its host time in reference
// interpretation rather than event processing. That regime is what the
// closed-form walk skip and its cruise records accelerate (see
// internal/machine/walkskip.go), making this BenchmarkResident's
// workload; it also pins down the walk skip's statistics under a
// near-100% hit rate.
type Resident struct {
	nodes  int
	pages  int // shared section pages per node
	iters  int
	passes int // tile sweeps per compute phase
	tile   int // resident tile bytes (must fit the L1 alongside the refresh lines)
	layout []addr.GVA
	progs  []*Program
}

// NewResident builds the generator at the given scale divisor on the
// paper's 16-node machine.
func NewResident(scale int) Generator { return NewResidentN(16, scale) }

// NewResidentN is NewResident with an explicit node count, for host-core
// scaling studies.
func NewResidentN(nodes, scale int) Generator {
	r := &Resident{
		nodes:  nodes,
		pages:  4,
		iters:  scaled(64, scale, 8),
		passes: 16,
		tile:   4 * 1024,
	}
	l := NewLayout()
	r.layout = l.Distributed(r.nodes, r.pages)
	r.progs = make([]*Program, r.nodes)
	for n := 0; n < r.nodes; n++ {
		pr := &Program{}
		r.progs[n] = pr
		for it := 0; it < r.iters; it++ {
			if it%16 == 0 {
				// Superphase boundary: exchange with the neighbor, then
				// compute. Communication misses cluster here — between
				// boundaries the tile re-establishes residency and the
				// compute phases run at an essentially pure hit rate, the
				// regime this generator exists to model.
				pr.Walk(r.layout[(n+1)%r.nodes], params.PageSize, params.BlockSize, 1, Read, 2)
			}
			// Compute phase: read-modify-write sweeps over the resident
			// tile. Line i sees the same operation every pass, so after the
			// first phase's cold fills every reference hits.
			pr.WalkRW(addr.PrivateRegion(n), int64(r.tile), params.LineSize, int64(r.passes), 4, 2)
			if it%16 == 15 {
				pr.Barrier(it / 16)
			}
		}
	}
	return r
}

// Name returns "resident".
func (r *Resident) Name() string { return "resident" }

// Nodes returns the node count.
func (r *Resident) Nodes() int { return r.nodes }

// HomePagesPerNode returns the per-node shared footprint.
func (r *Resident) HomePagesPerNode() int { return r.pages }

// PrivatePagesPerNode returns the pages backing the resident tile.
func (r *Resident) PrivatePagesPerNode() int { return 2 }

// Place homes section i at node i.
func (r *Resident) Place(place func(p addr.Page, home int)) {
	for i, base := range r.layout {
		PlacePages(place, base, r.pages, i)
	}
}

// Stream returns node i's reference stream.
func (r *Resident) Stream(node int) Stream { return r.progs[node].Stream() }

// CritSec models a lock-bound workload: every node repeatedly enters a
// global critical section to update a shared structure (think a central
// work queue), then does independent work. Synchronization (the paper's
// SYNC category) dominates as contention grows, and no memory architecture
// can buy it back — a useful control experiment.
type CritSec struct {
	nodes  int
	pages  int
	rounds int
	layout []addr.GVA
	progs  []*Program
}

// NewCritSec builds the generator at the given scale divisor.
func NewCritSec(scale int) Generator {
	c := &CritSec{
		nodes:  8,
		pages:  scaled(16, scale, 2),
		rounds: scaled(64, scale, 8),
	}
	l := NewLayout()
	c.layout = l.Distributed(c.nodes, c.pages)
	c.progs = make([]*Program, c.nodes)
	for n := 0; n < c.nodes; n++ {
		pr := &Program{}
		c.progs[n] = pr
		for r := 0; r < c.rounds; r++ {
			pr.Lock(0)
			// Update the head of the shared structure (node 0's first
			// page) inside the critical section.
			pr.WalkRW(c.layout[0], params.PageSize/4, params.LineSize, 1, 2, 4)
			pr.Unlock(0)
			// Independent work on the node's own section.
			pr.WalkRW(c.layout[n], pageBytes(c.pages), params.LineSize, 1, 4, 6)
		}
		pr.Barrier(0)
	}
	return c
}

// Name returns "critsec".
func (c *CritSec) Name() string { return "critsec" }

// Nodes returns the node count.
func (c *CritSec) Nodes() int { return c.nodes }

// HomePagesPerNode returns the per-node shared footprint.
func (c *CritSec) HomePagesPerNode() int { return c.pages }

// PrivatePagesPerNode returns 2.
func (c *CritSec) PrivatePagesPerNode() int { return 2 }

// Place homes section i at node i.
func (c *CritSec) Place(place func(p addr.Page, home int)) {
	for i, base := range c.layout {
		PlacePages(place, base, c.pages, i)
	}
}

// Stream returns node i's reference stream.
func (c *CritSec) Stream(node int) Stream { return c.progs[node].Stream() }

func init() {
	Register("uniform", NewUniform)
	Register("hotcold", NewHotCold)
	Register("stream", NewStream)
	Register("mismatch", NewMismatch)
	Register("critsec", NewCritSec)
	Register("resident", NewResident)
}
