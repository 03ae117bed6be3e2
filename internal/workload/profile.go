package workload

import (
	"fmt"
	"math/bits"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"

	"ascoma/internal/addr"
	"ascoma/internal/cache"
	"ascoma/internal/dense"
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
// Nodes replay in parallel, each on tables indexed densely (pages by
// addr.PageIndex, written blocks by placement slot), and merge in node
// order, so the profile is the same however the replays were scheduled.
// The LRU stack distance is a suffix count in a Fenwick tree (lruTree),
// O(log P) per remote miss. The per-reference replay these replace is
// kept in profile_ref_test.go, and FuzzProfileReplay holds the two equal.
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

// profEntry is one generator's memoized profile. Its once builds the
// profile outside profMu, so a cold build blocks only callers of the same
// generator.
type profEntry struct {
	once sync.Once
	p    *Profile
}

var (
	profMu   sync.Mutex // guards profMemo only, never a build
	profMemo = map[Generator]*profEntry{}
)

// ProfileOf builds (or returns the memoized) profile for a generator by
// replaying its streams. Safe for concurrent use: concurrent callers of
// one generator share one build and one *Profile, and a cold build does
// not hold up callers of other generators.
func ProfileOf(g Generator) *Profile {
	profMu.Lock()
	e := profMemo[g]
	if e == nil {
		e = new(profEntry)
		profMemo[g] = e
	}
	profMu.Unlock()
	e.once.Do(func() { e.p = buildProfile(g) })
	return e.p
}

// pageAcc accumulates one node's view of one page during replay.
type pageAcc struct {
	s, c, f, r, o, v int64
	blocks           uint64 // blocks fetched at least once (cold bitmap)
	owned            uint64 // blocks fetched or upgraded for writing
	lastInterval     int32
	lruAt            int32 // lruTree time of the last remote miss; 0 before the first
	placed           int32 // the page's placement slot, -1 when unplaced
	remote           bool
	// Per-block detail for the invalidation estimate: in how many
	// distinct barrier intervals each block is touched, and the last
	// interval that touched it.
	ivCount [params.BlocksPerPage]uint16
	ivLast  [params.BlocksPerPage]int32
}

// placement numbers the generator's placed pages densely in Place order:
// slot.Get(page index) holds a page's slot plus one (0 for unplaced
// pages), and home[slot] its home node. It is built before the replays
// and only read by them.
type placement struct {
	slot dense.Table[int32]
	home []int32
}

// nodeReplay is what one node's replay leaves for the merge: its page
// accumulators in first-touch order and its write counts per placed
// shared block (index slot*BlocksPerPage + block index; nil when the node
// writes no placed shared block). Writes to unplaced pages are not
// counted: only remote pages, which are placed, read the counts.
type nodeReplay struct {
	accs   []pageAcc
	writes []int32
}

// buildProfile replays every node's stream on min(GOMAXPROCS, nodes)
// goroutines, each replay with its own L1, RAC, page records and write
// counts, then merges the replays in node order, so the profile does not
// depend on how the nodes were scheduled.
func buildProfile(g Generator) *Profile {
	def := params.Default()
	nodes := g.Nodes()

	var pl placement
	g.Place(func(pg addr.Page, h int) {
		e := pl.slot.GetOrCreate(int(pg.MustIndex()))
		if *e == 0 {
			pl.home = append(pl.home, 0)
			*e = int32(len(pl.home))
		}
		pl.home[*e-1] = int32(h)
	})

	p := &Profile{
		Name:                g.Name(),
		Nodes:               nodes,
		HomePagesPerNode:    g.HomePagesPerNode(),
		PrivatePagesPerNode: g.PrivatePagesPerNode(),
		PerNode:             make([]NodeProfile, nodes),
	}

	res := make([]nodeReplay, nodes)
	workers := min(runtime.GOMAXPROCS(0), nodes)
	panics := make([]any, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A replay panic resurfaces on the caller's goroutine below,
			// where a server's recovery sees it, instead of ending the
			// process here.
			defer func() {
				if r := recover(); r != nil {
					panics[w] = fmt.Sprintf("%v\n%s", r, debug.Stack())
				}
			}()
			for n := int(next.Add(1) - 1); n < nodes; n = int(next.Add(1) - 1) {
				res[n] = replayNode(g, n, &pl, def, &p.PerNode[n])
			}
		}()
	}
	wg.Wait()
	for _, v := range panics {
		if v != nil {
			panic(v)
		}
	}

	maxIntervals := 0
	for n := range p.PerNode {
		maxIntervals = max(maxIntervals, len(p.PerNode[n].Intervals))
		p.MaxRemotePages = max(p.MaxRemotePages, p.PerNode[n].RemotePages)
	}
	// Pad every node to the same interval count (defensive: all current
	// workloads use global barriers, so counts already agree).
	for n := range p.PerNode {
		for len(p.PerNode[n].Intervals) < maxIntervals {
			p.PerNode[n].Intervals = append(p.PerNode[n].Intervals, Interval{})
		}
	}
	p.Barriers = int64(maxIntervals - 1)
	nIntervals := int64(max(maxIntervals, 1))

	// Cross-node sums per placed page and block: how many nodes touch
	// each page remotely, and how many writes each block takes in all.
	sharers := make([]int64, len(pl.home))
	var total []int64
	for n := range res {
		for i := range res[n].accs {
			if acc := &res[n].accs[i]; acc.remote {
				sharers[acc.placed]++
			}
		}
		if res[n].writes == nil {
			continue
		}
		if total == nil {
			total = make([]int64, len(res[n].writes))
		}
		for b, w := range res[n].writes {
			total[b] += int64(w)
		}
	}

	// Compact each node's remote pages into classes keyed by the full
	// per-page statistics vector: sort the keys, then count runs of equal
	// ones.
	for n := range res {
		own := res[n].writes
		keys := make([]PageClass, 0, p.PerNode[n].RemotePages)
		for i := range res[n].accs {
			acc := &res[n].accs[i]
			if !acc.remote {
				continue
			}
			b0 := int(acc.placed) * params.BlocksPerPage
			var homeW int64
			if h := int(pl.home[acc.placed]); h >= 0 && h < nodes {
				if hw := res[h].writes; hw != nil {
					for bi := 0; bi < params.BlocksPerPage; bi++ {
						if hw[b0+bi] > 0 {
							homeW = 1
							break
						}
					}
				}
			}
			// Invalidation estimate: a block this node re-touches in a
			// later interval was refetched if some other node wrote it in
			// between. Weight each re-touch by the other nodes' write
			// rate on the block (writes per interval, capped at 1): a
			// block written every interval always invalidates; sparse
			// scattered writes only sometimes land between two touches.
			var xf float64
			for bi := 0; bi < params.BlocksPerPage && total != nil; bi++ {
				if acc.ivCount[bi] <= 1 {
					continue
				}
				other := total[b0+bi]
				if own != nil {
					other -= int64(own[b0+bi])
				}
				if other <= 0 {
					continue
				}
				rate := float64(other) / float64(nIntervals)
				if rate > 1 {
					rate = 1
				}
				xf += float64(acc.ivCount[bi]-1) * rate
			}
			keys = append(keys, PageClass{
				S: acc.s, C: acc.c, F: acc.f, R: acc.r, O: acc.o, V: acc.v,
				X: int64(xf), Shar: sharers[acc.placed], HomeW: homeW,
			})
		}
		sort.Slice(keys, func(i, j int) bool { return classLess(keys[i], keys[j]) })
		cls := keys[:0]
		for _, key := range keys {
			if last := len(cls) - 1; last >= 0 && sameClass(cls[last], key) {
				cls[last].Pages++
				continue
			}
			key.Pages = 1
			cls = append(cls, key)
		}
		p.PerNode[n].Classes = cls
	}
	return p
}

// sameClass reports whether a and b have the same statistics, whatever
// their page counts.
func sameClass(a, b PageClass) bool {
	a.Pages, b.Pages = 0, 0
	return a == b
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

// replayNode walks node n's stream, a chunk window at a time, through a
// private L1 and RAC, filling np's interval digests and returning the
// node's page accumulators and write counts. Page records are found by
// dense page index, with a one-entry cache for the common run of misses
// on one page.
func replayNode(g Generator, n int, pl *placement, def params.Params, np *NodeProfile) nodeReplay {
	l1 := cache.NewL1(def.L1Bytes)
	rac := cache.NewRAC(def.RACEntries)
	var (
		out     nodeReplay
		slots   dense.Table[int32] // page index -> index into out.accs, plus one
		lru     lruTree
		lastPg  addr.Page
		lastAcc = -1
	)

	intervals := make([]Interval, 1, 8)
	cur := &intervals[0]
	curIdx := int32(0)

	st := Chunked(g.Stream(n))
	for refs := st.Pending(); len(refs) > 0; refs = st.Pending() {
		st.Skip(len(refs))
		for i := range refs {
			ref := &refs[i]
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

			shared := addr.IsShared(ref.Addr)
			if pg := addr.PageOf(ref.Addr); pg != lastPg || lastAcc < 0 {
				idx := int(pg.MustIndex())
				e := slots.GetOrCreate(idx)
				if *e == 0 {
					acc := pageAcc{placed: -1, lastInterval: -1}
					for bi := range acc.ivLast {
						acc.ivLast[bi] = -1
					}
					if s := pl.slot.Get(idx); s != nil && *s > 0 {
						acc.placed = *s - 1
					}
					// Shared pages are remote unless homed here; unplaced
					// pages (private data, or shared pages the generator
					// lets the first toucher adopt) are local.
					acc.remote = shared && acc.placed >= 0 && int(pl.home[acc.placed]) != n
					// Home pages at their home node are premapped by the
					// machine; everything else faults on first touch.
					if acc.remote || !shared || acc.placed < 0 {
						cur.Faults++
						np.Faults++
					}
					if acc.remote {
						np.RemotePages++
					}
					out.accs = append(out.accs, acc)
					*e = int32(len(out.accs))
				}
				lastPg, lastAcc = pg, int(*e-1)
			}
			acc := &out.accs[lastAcc]
			block := addr.BlockOf(ref.Addr)
			bi := uint(block.Index())
			// Record writers of shared blocks whether the writer is the
			// home node or a remote one: a local write still invalidates
			// every remote copy. Any first write to a line is an L1 miss
			// here (read-inserted lines are not writable), so miss-path
			// recording sees every block a node ever writes.
			if write && shared && acc.placed >= 0 {
				if out.writes == nil {
					out.writes = make([]int32, len(pl.home)*params.BlocksPerPage)
				}
				out.writes[int(acc.placed)*params.BlocksPerPage+int(bi)]++
			}
			if !acc.remote {
				if shared {
					cur.HomeMisses++
				} else {
					cur.PrivMisses++
				}
				continue
			}
			cur.RemoteMisses++
			acc.s++
			// Reuse distance: distinct other remote pages touched since
			// this page's last touch.
			if dist := lru.touch(out.accs, lastAcc); dist >= 1 {
				np.ReuseHist[min(bits.Len(uint(dist))-1, reuseBuckets-1)]++
				np.Episodes++
			}
			if acc.v == 0 || acc.lastInterval != curIdx {
				acc.v++
				acc.lastInterval = curIdx
			}
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
	}
	Recycle(st)
	np.Intervals = intervals
	return out
}

// lruTree measures exact LRU stack distances over one node's remote pages
// in O(log P) per touch. Every touched page holds one mark, at the time of
// its last touch (pageAcc.lruAt); its stack distance is the number of
// marks after its own, a suffix count in a Fenwick tree over time. When
// the clock reaches the end of the tree, renumber compacts the marks to
// times 1..P in order, growing the tree to stay a few times the page
// count, so the tree never needs more than O(P) slots.
type lruTree struct {
	tree  []int32 // Fenwick tree over times 1..len(tree)-1
	owner []int32 // owner[t]: the page record last touched at time t
	now   int32   // the latest time handed out
	pages int32   // pages holding a mark
}

// lruMinTimes is the smallest tree a node starts with.
const lruMinTimes = 64

// touch moves page record a of accs to the top of the stack and returns
// its stack distance before the move: -1 on the page's first touch, 0
// when it already was on top.
func (t *lruTree) touch(accs []pageAcc, a int) int {
	acc := &accs[a]
	if acc.lruAt != 0 && acc.lruAt == t.now {
		return 0
	}
	if int(t.now)+1 >= len(t.tree) {
		t.renumber(accs)
	}
	dist := -1
	if at := acc.lruAt; at == 0 {
		t.pages++
	} else {
		dist = int(t.pages - t.prefix(at))
		t.add(at, -1)
	}
	t.now++
	t.add(t.now, 1)
	acc.lruAt = t.now
	t.owner[t.now] = int32(a)
	return dist
}

// renumber gives the marked pages times 1..pages in their current order
// and rebuilds the tree, at least twice as large as the page count.
func (t *lruTree) renumber(accs []pageAcc) {
	live := int32(0)
	for s := int32(1); s <= t.now; s++ {
		if a := t.owner[s]; accs[a].lruAt == s {
			live++
			t.owner[live] = a
			accs[a].lruAt = live
		}
	}
	t.now = live
	if size := 4 * int(t.pages+1); len(t.tree) < max(size/2, lruMinTimes) {
		owner := make([]int32, max(size, lruMinTimes))
		copy(owner, t.owner)
		t.owner = owner
		t.tree = make([]int32, len(owner))
	}
	clear(t.tree)
	for i := 1; i < len(t.tree); i++ {
		if i <= int(live) {
			t.tree[i]++
		}
		if j := i + i&-i; j < len(t.tree) {
			t.tree[j] += t.tree[i]
		}
	}
}

// prefix returns the number of marks at times 1..i.
func (t *lruTree) prefix(i int32) int32 {
	s := int32(0)
	for ; i > 0; i -= i & -i {
		s += t.tree[i]
	}
	return s
}

// add adds d to the mark count at time i.
func (t *lruTree) add(i, d int32) {
	for ; int(i) < len(t.tree); i += i & -i {
		t.tree[i] += d
	}
}
