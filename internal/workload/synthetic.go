package workload

import (
	"ascoma/internal/addr"
	"ascoma/internal/params"
)

// The synthetic generators are small, fully parameterized workloads used by
// tests, examples, and ablation benchmarks. They cover the three access
// regimes the six applications combine: uniform random (radix-like),
// hot/cold skew (barnes/em3d-like), and streaming touch-once (fft-like).

// synthetic parameterizes the three regimes; build turns it into Programs.
type synthetic struct {
	name      string
	nodes     int
	homePages int // shared home pages per node
	privPages int
	iters     int

	// hotFraction of each node's remote window is re-read every
	// iteration; the rest is streamed once (0 = all hot).
	hotFraction float64
	// remoteWindow is the number of remote pages each node touches per
	// remote section.
	remoteWindow int
	// scatterRefs per node per iteration issued uniformly over the whole
	// shared region (0 disables the scatter phase).
	scatterRefs int64
	// writeEvery makes every n'th reference a write (0 = reads only).
	writeEvery int64
	// think cycles per reference.
	think int32
}

func (s synthetic) build() Generator {
	g := NewPrograms(s.name, s.nodes, s.homePages, s.privPages)
	totalBytes := pageBytes(s.homePages * s.nodes)

	window := s.remoteWindow
	if window > s.homePages {
		window = s.homePages
	}
	hot := int(float64(window) * s.hotFraction)

	for n := 0; n < s.nodes; n++ {
		pr := g.Program(n)
		for it := 0; it < s.iters; it++ {
			pr.WalkRW(addr.PrivateRegion(n), pageBytes(s.privPages), params.LineSize, 1, 4, s.think)
			// Own-section sweep.
			pr.WalkRW(g.Section(n), pageBytes(s.homePages), params.LineSize, 1, 3, s.think)
			// Remote phase.
			if window > 0 && s.nodes > 1 {
				r := g.Section((n + 1) % s.nodes)
				if hot > 0 {
					// Hot window: stable across iterations.
					pr.Walk(r, pageBytes(hot), params.BlockSize, 2, Read, s.think)
				}
				if coldPages := window - hot; coldPages > 0 {
					// Streaming window: rotates so pages are touched once.
					off := (it * coldPages) % (s.homePages - coldPages + 1)
					pr.Walk(r+addrOf(pageBytes(off)), pageBytes(coldPages), params.BlockSize, 1, Read, s.think)
				}
			}
			if s.scatterRefs > 0 {
				pr.ScatterRuns(g.Section(0), totalBytes, params.BlockSize, s.scatterRefs, 2, s.writeEvery, s.think, seedFor(s.name, n, it))
			}
			pr.Barrier(it)
		}
	}
	return g
}

// NewUniform is a radix-like generator: uniform scattered block touches
// over the whole shared region.
func NewUniform(scale int) Generator {
	return synthetic{
		name:        "uniform",
		nodes:       8,
		homePages:   scaled(64, scale, 8),
		privPages:   4,
		iters:       3,
		scatterRefs: int64(scaled(16384, scale, 1024)),
		writeEvery:  16,
		think:       4,
	}.build()
}

// NewHotCold is a barnes/em3d-like generator: a hot remote window reread
// every iteration plus a light streaming tail.
func NewHotCold(scale int) Generator {
	return NewHotColdN(8, scale)
}

// NewHotColdN is NewHotCold with an explicit node count, for machine-size
// scaling studies (the simulator supports up to 64 nodes).
func NewHotColdN(nodes, scale int) Generator {
	return synthetic{
		name:         "hotcold",
		nodes:        nodes,
		homePages:    scaled(128, scale, 8),
		privPages:    4,
		iters:        4,
		remoteWindow: scaled(64, scale, 4),
		hotFraction:  0.75,
		think:        6,
	}.build()
}

// NewStream is an fft-like generator: remote pages are touched exactly
// once per iteration with no reuse.
func NewStream(scale int) Generator {
	return synthetic{
		name:         "stream",
		nodes:        8,
		homePages:    scaled(128, scale, 8),
		privPages:    4,
		iters:        3,
		remoteWindow: scaled(48, scale, 4),
		think:        4,
	}.build()
}

// mismatch models a badly-placed single-owner workload: every shared page
// is initially homed on node 0 (a serial initialization phase touched it
// first), but each page is thereafter used exclusively by one other node.
// This is the textbook case where dynamic page *migration* fixes placement
// permanently — the case the related work says migration succeeds at
// ("read-only or non-shared pages") — while CC-NUMA pays remote latency
// forever. It differs from Programs only in placement and footprint.
type mismatch struct{ *Programs }

// HomePagesPerNode returns the whole shared footprint: node 0 homes every
// page, so each node's physical memory is sized for the worst case.
func (m mismatch) HomePagesPerNode() int { return m.nodes * m.homePages }

// Place homes every page at node 0 — the misplacement under study.
func (m mismatch) Place(place func(p addr.Page, home int)) {
	for i := 0; i < m.nodes; i++ {
		placeSection(place, m.Section(i), m.homePages, 0)
	}
}

// NewMismatch builds the generator at the given scale divisor.
func NewMismatch(scale int) Generator {
	const nodes, iters = 8, 6
	slice := scaled(32, scale, 4) // pages used per node
	g := NewPrograms("mismatch", nodes, slice, 4)
	for n := 0; n < nodes; n++ {
		pr := g.Program(n)
		for it := 0; it < iters; it++ {
			// Exclusive read-modify-write sweeps over this node's slice
			// (node 0, the bad home, works only on its own);
			// block-strided so the RAC cannot hide the misplacement.
			pr.WalkRW(g.Section(n), pageBytes(slice), params.BlockSize, 2, 4, 6)
			pr.Barrier(it)
		}
	}
	return mismatch{g}
}

// NewResident models the compute phase of a cache-blocked application on
// the paper's 16-node machine: each node repeatedly sweeps a small private
// tile that stays resident in its L1 (a blocked matrix panel, a per-thread
// hash table), reads a neighbor's shared page between sweeps, and
// synchronizes at a barrier every few phases. The paper's six applications
// are measured in their communication-heavy phases, so none of the existing
// generators exercises the opposite regime — the L1-hit-dominated stretches
// where an execution-driven simulator spends its host time in reference
// interpretation rather than event processing. That regime is what the
// closed-form walk skip and its cruise records accelerate (see
// internal/machine/walkskip.go), making this BenchmarkResident's
// workload; it also pins down the walk skip's statistics under a
// near-100% hit rate.
func NewResident(scale int) Generator {
	const (
		nodes  = 16
		pages  = 4        // shared section pages per node
		passes = 16       // tile sweeps per compute phase
		tile   = 4 * 1024 // resident tile bytes (must fit the L1 alongside the refresh lines)
	)
	iters := scaled(64, scale, 8)
	g := NewPrograms("resident", nodes, pages, 2)
	for n := 0; n < nodes; n++ {
		pr := g.Program(n)
		for it := 0; it < iters; it++ {
			if it%16 == 0 {
				// Superphase boundary: exchange with the neighbor, then
				// compute. Communication misses cluster here — between
				// boundaries the tile re-establishes residency and the
				// compute phases run at an essentially pure hit rate, the
				// regime this generator exists to model.
				pr.Walk(g.Section((n+1)%nodes), params.PageSize, params.BlockSize, 1, Read, 2)
			}
			// Compute phase: read-modify-write sweeps over the resident
			// tile. Line i sees the same operation every pass, so after the
			// first phase's cold fills every reference hits.
			pr.WalkRW(addr.PrivateRegion(n), tile, params.LineSize, passes, 4, 2)
			if it%16 == 15 {
				pr.Barrier(it / 16)
			}
		}
	}
	return g
}

// NewCritSec models a lock-bound workload: every node repeatedly enters a
// global critical section to update a shared structure (think a central
// work queue), then does independent work. Synchronization (the paper's
// SYNC category) dominates as contention grows, and no memory architecture
// can buy it back — a useful control experiment.
func NewCritSec(scale int) Generator {
	const nodes = 8
	pages := scaled(16, scale, 2)
	rounds := scaled(64, scale, 8)
	g := NewPrograms("critsec", nodes, pages, 2)
	for n := 0; n < nodes; n++ {
		pr := g.Program(n)
		for r := 0; r < rounds; r++ {
			pr.Lock(0)
			// Update the head of the shared structure (node 0's first
			// page) inside the critical section.
			pr.WalkRW(g.Section(0), params.PageSize/4, params.LineSize, 1, 2, 4)
			pr.Unlock(0)
			// Independent work on the node's own section.
			pr.WalkRW(g.Section(n), pageBytes(pages), params.LineSize, 1, 4, 6)
		}
		pr.Barrier(0)
	}
	return g
}

func init() {
	Register("uniform", NewUniform)
	Register("hotcold", NewHotCold)
	Register("stream", NewStream)
	Register("mismatch", NewMismatch)
	Register("critsec", NewCritSec)
	Register("resident", NewResident)
}
