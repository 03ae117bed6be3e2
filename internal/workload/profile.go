package workload

import (
	"sort"
	"sync"

	"ascoma/internal/addr"
	"ascoma/internal/cache"
	"ascoma/internal/params"
)

// This file builds structural workload profiles for the analytical
// estimator (internal/estimate). A profile is obtained by replaying each
// node's reference stream once — through the real cache.L1 and cache.RAC
// structures, but with no machine, no coherence, and no timing — and
// recording the per-page quantities the steady-state model needs: how many
// L1 misses each remote page absorbs, how many distinct blocks it holds,
// how often CC-NUMA mode would refetch it, and in how many barrier
// intervals it is live. Replay is exact for everything a single node can
// observe; cross-node effects (invalidations, lock serialization) are what
// the estimator approximates and the simulator computes.
//
// Profiles are memoized per generator (generators themselves are memoized
// per (name, scale) by New), so the one-time replay cost is amortized
// across every Predict call in a sweep.

// PageClass aggregates remote shared pages with identical replay
// statistics, from one node's point of view. All counters are per page.
type PageClass struct {
	Pages int64 // number of remote pages in this class
	S     int64 // L1 line misses (page-cache references in S-COMA mode)
	C     int64 // distinct blocks fetched (cold misses)
	F     int64 // block fetch events in CC-NUMA mode (RAC misses, incl. ownership refetches)
	R     int64 // RAC hits in CC-NUMA mode
	O     int64 // ownership upgrades (first write to a block fetched earlier by a read)
	V     int64 // barrier intervals in which the page is touched
	X     int64 // cross-interval re-touches of write-shared blocks (invalidation refetches)
	Shar  int64 // nodes that touch the page remotely (for migration modeling)
	HomeW int64 // 1 if the page's home node writes it (migration ping-pong risk)
}

// Interval summarizes one barrier interval of one node's stream. Counters
// are raw event counts; the estimator weights them with params cycles.
type Interval struct {
	Think        int64 // user instruction cycles
	L1Hits       int64 // references satisfied by the L1
	HomeMisses   int64 // line misses on shared pages homed at this node
	PrivMisses   int64 // line misses on private pages (local memory)
	RemoteMisses int64 // line misses on remote shared pages (arch-dependent cost)
	Faults       int64 // pages first touched in this interval (fault handler runs)
	LockOps      int64 // lock + unlock operations
}

// NodeProfile is one node's replayed stream digest.
type NodeProfile struct {
	Refs        int64 // total read/write references
	RemotePages int64 // distinct remote shared pages touched
	Faults      int64 // total mapping faults (private + remote first touches)
	Classes     []PageClass
	Intervals   []Interval

	// ReuseHist is the LRU stack-distance histogram of remote-page
	// reuse: bucket k counts L1-miss touches whose page had distance
	// [2^k, 2^(k+1)) — k distinct other remote pages touched since its
	// previous touch. Touches with distance >= pool size refault under
	// LRU-like replacement, which is how the estimator prices pure
	// S-COMA thrash at any pressure without replaying anything.
	ReuseHist [reuseBuckets]int64
	// Episodes is the total reuse-episode count (sum of ReuseHist).
	Episodes int64
}

// reuseBuckets covers stack distances up to 2^20 pages.
const reuseBuckets = 20

// Profile is the structural summary of a workload that the estimator
// consumes. It is architecture- and pressure-independent; everything the
// architectures differ on is derived from it analytically.
type Profile struct {
	Name                string
	Nodes               int
	HomePagesPerNode    int
	PrivatePagesPerNode int
	Barriers            int64 // global barrier episodes
	MaxRemotePages      int64 // max over nodes of distinct remote pages touched
	PerNode             []NodeProfile
}

// ProfileFor builds (or returns the memoized) profile for a registered
// workload at the given scale.
func ProfileFor(name string, scale int) (*Profile, error) {
	g, err := New(name, scale)
	if err != nil {
		return nil, err
	}
	return ProfileOf(g), nil
}

var (
	profMu   sync.Mutex
	profMemo = map[Generator]*Profile{}
)

// ProfileOf builds (or returns the memoized) profile for a generator by
// replaying its streams. Safe for concurrent use.
func ProfileOf(g Generator) *Profile {
	profMu.Lock()
	defer profMu.Unlock()
	if p, ok := profMemo[g]; ok {
		return p
	}
	p := buildProfile(g)
	profMemo[g] = p
	return p
}

// pageAcc accumulates one node's view of one page during replay.
type pageAcc struct {
	s, c, f, r, o, v int64
	blocks           uint64 // blocks fetched at least once (cold bitmap)
	owned            uint64 // blocks fetched or upgraded for writing
	lastInterval     int32
	remote           bool
	// Per-block detail for the invalidation estimate: in how many
	// distinct barrier intervals each block is touched, and the last
	// interval that touched it.
	ivCount [params.BlocksPerPage]uint16
	ivLast  [params.BlocksPerPage]int32
}

func buildProfile(g Generator) *Profile {
	def := params.Default()
	nodes := g.Nodes()

	home := make(map[addr.Page]int)
	g.Place(func(pg addr.Page, h int) { home[pg] = h })

	p := &Profile{
		Name:                g.Name(),
		Nodes:               nodes,
		HomePagesPerNode:    g.HomePagesPerNode(),
		PrivatePagesPerNode: g.PrivatePagesPerNode(),
		PerNode:             make([]NodeProfile, nodes),
	}

	// pages[n] is node n's per-page accumulator map; kept until all nodes
	// have replayed so cross-node sharer counts and invalidation
	// estimates can be computed. writers[b] counts write events to block
	// b, total and per node.
	pages := make([]map[addr.Page]*pageAcc, nodes)
	writers := make(map[addr.Block]*blockWrites)
	maxIntervals := 0
	for n := 0; n < nodes; n++ {
		pages[n] = replayNode(g, n, home, def, writers, &p.PerNode[n])
		if len(p.PerNode[n].Intervals) > maxIntervals {
			maxIntervals = len(p.PerNode[n].Intervals)
		}
		if p.PerNode[n].RemotePages > p.MaxRemotePages {
			p.MaxRemotePages = p.PerNode[n].RemotePages
		}
	}
	// Pad every node to the same interval count (defensive: all current
	// workloads use global barriers, so counts already agree).
	for n := range p.PerNode {
		for len(p.PerNode[n].Intervals) < maxIntervals {
			p.PerNode[n].Intervals = append(p.PerNode[n].Intervals, Interval{})
		}
	}
	p.Barriers = int64(maxIntervals - 1)
	nIntervals := int64(maxIntervals)
	if nIntervals < 1 {
		nIntervals = 1
	}

	// Cross-node sharer counts: how many nodes touch each page remotely.
	sharers := make(map[addr.Page]int64)
	for n := 0; n < nodes; n++ {
		//ascoma:allow-nondet commutative per-page increments; order-independent
		for pg, acc := range pages[n] {
			if acc.remote {
				sharers[pg]++
			}
		}
	}

	// Compact each node's remote pages into classes keyed by the full
	// per-page statistics vector; sort for a deterministic profile.
	for n := 0; n < nodes; n++ {
		byKey := make(map[PageClass]int64)
		//ascoma:allow-nondet commutative class counting; the class slice is sorted below
		for pg, acc := range pages[n] {
			if !acc.remote {
				continue
			}
			// Invalidation estimate: a block this node re-touches in a
			// later interval was refetched if some other node wrote it in
			// between. Weight each re-touch by the other nodes' write
			// rate on the block (writes per interval, capped at 1): a
			// block written every interval always invalidates; sparse
			// scattered writes only sometimes land between two touches.
			var xf float64
			var homeW int64
			if h, ok := home[pg]; ok {
				for bi := 0; bi < params.BlocksPerPage; bi++ {
					if bw := writers[pg.BlockAt(bi)]; bw != nil && bw.perNode[h] > 0 {
						homeW = 1
						break
					}
				}
			}
			for bi := 0; bi < params.BlocksPerPage; bi++ {
				if acc.ivCount[bi] <= 1 {
					continue
				}
				bw := writers[pg.BlockAt(bi)]
				if bw == nil {
					continue
				}
				other := bw.total - bw.perNode[n]
				if other <= 0 {
					continue
				}
				rate := float64(other) / float64(nIntervals)
				if rate > 1 {
					rate = 1
				}
				xf += float64(acc.ivCount[bi]-1) * rate
			}
			x := int64(xf)
			key := PageClass{
				S: acc.s, C: acc.c, F: acc.f, R: acc.r, O: acc.o, V: acc.v,
				X: x, Shar: sharers[pg], HomeW: homeW,
			}
			byKey[key]++
		}
		cls := make([]PageClass, 0, len(byKey))
		//ascoma:allow-nondet classLess totally orders distinct keys; sort below restores determinism
		for key, count := range byKey {
			key.Pages = count
			cls = append(cls, key)
		}
		sort.Slice(cls, func(i, j int) bool { return classLess(cls[i], cls[j]) })
		p.PerNode[n].Classes = cls
	}
	return p
}

func classLess(a, b PageClass) bool {
	if a.S != b.S {
		return a.S < b.S
	}
	if a.C != b.C {
		return a.C < b.C
	}
	if a.F != b.F {
		return a.F < b.F
	}
	if a.R != b.R {
		return a.R < b.R
	}
	if a.O != b.O {
		return a.O < b.O
	}
	if a.V != b.V {
		return a.V < b.V
	}
	if a.X != b.X {
		return a.X < b.X
	}
	if a.Shar != b.Shar {
		return a.Shar < b.Shar
	}
	return a.HomeW < b.HomeW
}

// replayNode walks node n's stream through a private L1 and RAC, filling
// np's interval digests and returning the per-page accumulators.
// blockWrites counts write events to one shared block, total and per
// writing node.
type blockWrites struct {
	total   int64
	perNode [maxProfileNodes]int64
}

// maxProfileNodes bounds the per-block writer arrays; no workload runs
// more nodes than this.
const maxProfileNodes = 64

func replayNode(g Generator, n int, home map[addr.Page]int, def params.Params, writers map[addr.Block]*blockWrites, np *NodeProfile) map[addr.Page]*pageAcc {
	l1 := cache.NewL1(def.L1Bytes)
	rac := cache.NewRAC(def.RACEntries)
	accs := make(map[addr.Page]*pageAcc)

	intervals := make([]Interval, 1, 8)
	cur := &intervals[0]
	curIdx := int32(0)

	// LRU stack of remote pages for the reuse-distance histogram.
	var lru []addr.Page

	st := g.Stream(n)
	for {
		ref, ok := st.Next()
		if !ok {
			break
		}
		cur.Think += int64(ref.Think)
		switch ref.Op {
		case Barrier:
			intervals = append(intervals, Interval{})
			cur = &intervals[len(intervals)-1]
			curIdx++
			continue
		case Lock, Unlock:
			cur.LockOps++
			continue
		}
		np.Refs++
		line := addr.LineOf(ref.Addr)
		write := ref.Op == Write
		if l1.Lookup(line, write) {
			cur.L1Hits++
			continue
		}
		l1.Insert(line, write)

		pg := addr.PageOf(ref.Addr)
		acc := accs[pg]
		if acc == nil {
			acc = &pageAcc{lastInterval: -1}
			for i := range acc.ivLast {
				acc.ivLast[i] = -1
			}
			h, placed := home[pg]
			// Shared pages are remote unless homed here; unplaced pages
			// (private data, or shared pages the generator lets the
			// first toucher adopt) are local.
			acc.remote = addr.IsShared(ref.Addr) && placed && h != n
			accs[pg] = acc
			// Home pages at their home node are premapped by the
			// machine; everything else faults on first touch.
			if acc.remote || !addr.IsShared(ref.Addr) || !placed {
				cur.Faults++
				np.Faults++
			}
		}
		block := addr.BlockOf(ref.Addr)
		// Record writers of shared blocks whether the writer is the home
		// node or a remote one: a local write still invalidates every
		// remote copy. Any first write to a line is an L1 miss here
		// (read-inserted lines are not writable), so miss-path recording
		// sees every block a node ever writes.
		if write && addr.IsShared(ref.Addr) && n < maxProfileNodes {
			bw := writers[block]
			if bw == nil {
				bw = &blockWrites{}
				writers[block] = bw
			}
			bw.total++
			bw.perNode[n]++
		}
		if !acc.remote {
			if addr.IsShared(ref.Addr) {
				cur.HomeMisses++
			} else {
				cur.PrivMisses++
			}
			continue
		}
		cur.RemoteMisses++
		acc.s++
		// Reuse distance: position of the page in the LRU stack of
		// remote pages (distinct other pages touched since last touch).
		dist := -1
		for i, q := range lru {
			if q == pg {
				dist = i
				copy(lru[1:i+1], lru[:i])
				lru[0] = pg
				break
			}
		}
		if dist < 0 {
			lru = append(lru, 0)
			copy(lru[1:], lru)
			lru[0] = pg
		} else if dist >= 1 {
			b := 0
			for d := dist; d > 1; d >>= 1 {
				b++
			}
			if b >= reuseBuckets {
				b = reuseBuckets - 1
			}
			np.ReuseHist[b]++
			np.Episodes++
		}
		if acc.v == 0 || acc.lastInterval != curIdx {
			acc.v++
			acc.lastInterval = curIdx
		}
		bi := uint(block.Index())
		if acc.ivLast[bi] != curIdx {
			acc.ivLast[bi] = curIdx
			acc.ivCount[bi]++
		}
		cold := acc.blocks&(1<<bi) == 0
		if cold {
			acc.c++
			acc.blocks |= 1 << bi
		}
		if write {
			if acc.owned&(1<<bi) == 0 {
				if !cold {
					acc.o++ // upgrade of a block first fetched by a read
				}
				acc.owned |= 1 << bi
			}
		}
		// CC-NUMA mode replay: the RAC filters repeat fetches.
		if rac.Lookup(block, write) {
			acc.r++
		} else {
			acc.f++
			rac.Insert(block, write)
		}
	}
	np.Intervals = intervals
	np.RemotePages = int64(countRemote(accs))
	return accs
}

func countRemote(accs map[addr.Page]*pageAcc) int {
	n := 0
	//ascoma:allow-nondet pure count; order-independent
	for _, acc := range accs {
		if acc.remote {
			n++
		}
	}
	return n
}
