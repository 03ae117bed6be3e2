package workload

// The reference profile builder: the straightforward per-reference replay
// the production builder (profile.go) is held to. It replays one node
// after another through a map of heap-allocated page accumulators, a
// shared map of per-block writer counts and an O(P) move-to-front LRU
// scan, reading its streams one Next at a time. FuzzProfileReplay requires
// buildProfile to be deep-equal to it on random programs.

import (
	"reflect"
	"slices"
	"sort"
	"testing"

	"ascoma/internal/addr"
	"ascoma/internal/cache"
	"ascoma/internal/params"
)

// refPageAcc accumulates one node's view of one page during replay.
type refPageAcc struct {
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

func refBuildProfile(g Generator) *Profile {
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
	pages := make([]map[addr.Page]*refPageAcc, nodes)
	writers := make(map[addr.Block]*refBlockWrites)
	maxIntervals := 0
	for n := 0; n < nodes; n++ {
		pages[n] = refReplayNode(g, n, home, def, writers, &p.PerNode[n])
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

// refReplayNode walks node n's stream through a private L1 and RAC, filling
// np's interval digests and returning the per-page accumulators.
// refBlockWrites counts write events to one shared block, total and per
// writing node.
type refBlockWrites struct {
	total   int64
	perNode [refMaxProfileNodes]int64
}

// refMaxProfileNodes bounds the per-block writer arrays; no workload runs
// more nodes than this.
const refMaxProfileNodes = 64

func refReplayNode(g Generator, n int, home map[addr.Page]int, def params.Params, writers map[addr.Block]*refBlockWrites, np *NodeProfile) map[addr.Page]*refPageAcc {
	l1 := cache.NewL1(def.L1Bytes)
	rac := cache.NewRAC(def.RACEntries)
	accs := make(map[addr.Page]*refPageAcc)

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
			acc = &refPageAcc{lastInterval: -1}
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
		if write && addr.IsShared(ref.Addr) && n < refMaxProfileNodes {
			bw := writers[block]
			if bw == nil {
				bw = &refBlockWrites{}
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
	np.RemotePages = int64(refCountRemote(accs))
	return accs
}

func refCountRemote(accs map[addr.Page]*refPageAcc) int {
	n := 0
	//ascoma:allow-nondet pure count; order-independent
	for _, acc := range accs {
		if acc.remote {
			n++
		}
	}
	return n
}

// FuzzProfileReplay is the differential check behind TestProfileDigests:
// for random small programs, buildProfile must be deep-equal to the
// reference replay. Each node's program mixes walks, read-modify-write
// walks, scatters and scatter runs over its own section (writes by the
// home node), a peer's or the whole shared region (writes by remote
// nodes), shared pages past the placed sections (unplaced) and its
// private pages, with barriers and lock-protected steps between them.
// Scatters over the whole region touch enough distinct remote pages, in
// alternation, to make the stack-distance tree renumber and grow.
func FuzzProfileReplay(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint8(3), uint8(8))
	f.Add(uint64(0x9e3779b97f4a7c15), uint8(3), uint8(23), uint8(11))
	f.Add(uint64(42), uint8(2), uint8(16), uint8(5))
	f.Add(uint64(7), uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, nodesRaw, homeRaw, stepsRaw uint8) {
		nodes := 1 + int(nodesRaw)%4
		home := 1 + int(homeRaw)%24
		g := NewPrograms("fuzz", nodes, home, 2)
		placed := pageBytes(nodes * home)
		r := newRNG(seed)
		for n := 0; n < nodes; n++ {
			p := g.Program(n)
			steps := 1 + int(stepsRaw)%12
			for s := 0; s < steps; s++ {
				base, bytes := addr.SharedBase, placed+pageBytes(8) // the whole shared region
				switch r.intn(5) {
				case 0:
					base, bytes = g.Section(n), pageBytes(home)
				case 1:
					base, bytes = g.Section(int(r.intn(uint64(nodes)))), pageBytes(home)
				case 2:
					base, bytes = addr.SharedBase+addrOf(placed), pageBytes(8) // unplaced
				case 3:
					base, bytes = addr.PrivateRegion(n), pageBytes(2)
				}
				stride := int64(32) << r.intn(5)
				op := Op(r.intn(2))
				think := int32(r.intn(4))
				count := 1 + int64(r.intn(600))
				switch r.intn(6) {
				case 0:
					p.Walk(base, bytes, stride, 1+int64(r.intn(2)), op, think)
				case 1:
					p.WalkRW(base, bytes, stride, 1+int64(r.intn(2)), 1+int64(r.intn(4)), think)
				case 2:
					p.Scatter(base, bytes, stride, count, op, think, r.next())
				case 3:
					p.ScatterRuns(base, bytes, stride, count, 1+int64(r.intn(8)), int64(r.intn(4)), think, r.next())
				case 4:
					p.Barrier(s)
				case 5:
					p.Lock(s)
					p.Scatter(base, bytes, stride, count/8+1, Write, think, r.next())
					p.Unlock(s)
				}
			}
		}
		got, want := buildProfile(g), refBuildProfile(g)
		if reflect.DeepEqual(got, want) {
			return
		}
		for n := range want.PerNode {
			if n >= len(got.PerNode) || !reflect.DeepEqual(got.PerNode[n], want.PerNode[n]) {
				t.Fatalf("node %d of %d: got %+v\nwant %+v", n, nodes, got.PerNode[n], want.PerNode[n])
			}
		}
		got.PerNode, want.PerNode = nil, nil
		t.Fatalf("got %+v\nwant %+v", got, want)
	})
}

// TestLRUTreeMatchesMoveToFront drives lruTree with random touches over a
// growing page set and requires every distance to equal the position of
// the page in an explicit move-to-front list, across many renumbers and
// growths of the tree.
func TestLRUTreeMatchesMoveToFront(t *testing.T) {
	r := newRNG(3)
	accs := make([]pageAcc, 0, 1000)
	var tree lruTree
	var mtf []int
	for i := 0; i < 200000; i++ {
		// Touch mostly a hot set of recent pages, sometimes a new one.
		var a int
		if len(accs) == 0 || (len(accs) < cap(accs) && r.intn(16) == 0) {
			accs = append(accs, pageAcc{})
			a = len(accs) - 1
		} else {
			a = int(r.intn(uint64(len(accs))))
			if r.intn(2) == 0 {
				a = mtf[r.intn(uint64(min(len(mtf), 8)))]
			}
		}
		want := slices.Index(mtf, a)
		if want < 0 {
			mtf = slices.Insert(mtf, 0, a)
		} else {
			copy(mtf[1:want+1], mtf[:want])
			mtf[0] = a
		}
		if got := tree.touch(accs, a); got != want {
			t.Fatalf("touch %d of page %d: distance %d, want %d", i, a, got, want)
		}
	}
	if len(tree.tree) > 8*len(accs) {
		t.Errorf("tree has %d times for %d pages", len(tree.tree), len(accs))
	}
}
