// Package directory implements the home-node side of the DSM protocol: a
// sequentially-consistent write-invalidate MSI protocol at 128-byte block
// granularity, with per-block copysets, three-hop forwarding for dirty
// blocks, and — the R-NUMA mechanism the hybrids build on — a per-page,
// per-node refetch counter: "Whenever a directory controller receives a
// request for a cache line from a node, it checks to see if that node is
// already in the copyset of nodes for that line. If it is, this request is
// a refetch caused by a conflict miss ... and the node's refetch counter
// for this page is incremented."
//
// The directory also owns the machine-wide page-home map, implementing the
// paper's extended first-touch allocation: each node may claim at most its
// proportional share of home pages; overflow pages are assigned round-robin
// to nodes below their limit.
package directory

import (
	"fmt"

	"ascoma/internal/addr"
	"ascoma/internal/dense"
	"ascoma/internal/obs"
	"ascoma/internal/params"
)

// BlockState is the MSI directory state of one 128-byte block.
type BlockState uint8

const (
	// Uncached: no node holds the block.
	Uncached BlockState = iota
	// SharedState: one or more nodes hold read-only copies (copyset).
	SharedState
	// Modified: exactly one node (owner) holds a dirty copy.
	Modified
)

// String returns the state name.
func (s BlockState) String() string {
	switch s {
	case Uncached:
		return "Uncached"
	case SharedState:
		return "Shared"
	case Modified:
		return "Modified"
	}
	return fmt.Sprintf("BlockState(%d)", uint8(s))
}

// MissClass classifies a remotely-satisfied fetch for the figures' right-
// hand charts.
type MissClass uint8

const (
	// ColdEssential: the node has never fetched this block.
	ColdEssential MissClass = iota
	// ColdInduced: the node fetched the block before but lost it to a
	// page flush during a CC-NUMA<->S-COMA remapping. The paper counts
	// these in COLD ("including both essential cold misses and cold
	// misses induced by remapping").
	ColdInduced
	// Conflict: the node fetched the block before and lost it to cache
	// replacement or coherence; counted as CONF/CAPC.
	Conflict
)

type blockDir struct {
	state   BlockState
	owner   uint8
	copyset uint64
}

type pageEntry struct {
	present bool // set once a home is assigned (entries live in a dense table)
	home    int
	blocks  [params.BlocksPerPage]blockDir

	// Per-node refetch counters (the R-NUMA per-page-per-node counter
	// array: "4 bits per page per node" in Table 2 — modeled wider so the
	// adaptive thresholds can exceed 15). Sized by the 64-node protocol
	// limit so entries are value-typed: no per-page slice allocation.
	refetch [64]uint32

	// Classification state per block: which nodes have ever fetched it
	// and which lost it to a remap-induced flush.
	everFetched  [params.BlocksPerPage]uint64
	remapFlushed [params.BlocksPerPage]uint64

	// Table 6 bookkeeping: nodes that ever accessed the page remotely and
	// nodes whose refetch count ever crossed the initial threshold.
	remoteAccessed uint64
	everHot        uint64
}

// Invalidator is called by the directory to invalidate a block in a remote
// node's caches (L1, RAC, and S-COMA page cache).
type Invalidator func(node int, b addr.Block)

// Writebacker is called when a dirty owner must supply/flush a block
// (three-hop forwarding); the node model clears its dirty bits.
type Writebacker func(node int, b addr.Block, invalidate bool)

// Directory is the machine-wide collection of per-page directory entries
// and the page-home map.
type Directory struct {
	nodes     int
	threshold int // initial relocation threshold, for Table 6's everHot

	// pages is keyed by the dense page index (addr.PageIndex): two array
	// indexations per directory operation instead of a map probe, with
	// entries value-typed inside their chunk.
	pages     dense.Table[pageEntry]
	pageCount int

	// touched marks pages some remote node has fetched. Remote copies are
	// created only by Fetch, so a home-node access to an untouched page can
	// need no invalidation and no dirty retrieval, and the state updates it
	// would apply are writes of values already in place. HomeRead/HomeWrite
	// test this one-byte-per-page side table — a flat slice indexed by the
	// dense page index, which stays cache-resident — and skip the ~1 KB
	// pageEntry entirely on the (common) untouched path.
	touched []uint8

	// Home allocation state.
	homeCount []int // home pages currently owned per node
	homeLimit int   // proportional cap per node (0 = uncapped)
	rrNext    int   // round-robin cursor for overflow pages

	invalidate Invalidator
	writeback  Writebacker

	// rec is the attached flight recorder (nil = observability off). The
	// owning machine stamps its clock before Fetch, so the refetch-hot
	// event below carries the simulated cycle of the triggering fetch.
	rec *obs.Recorder
}

// New creates a directory for n nodes. homeLimit caps first-touch home
// allocation per node (0 disables the cap). threshold is the initial
// relocation threshold used only for Table 6 accounting.
func New(nodes, homeLimit, threshold int, inv Invalidator, wb Writebacker) *Directory {
	return &Directory{
		nodes:      nodes,
		threshold:  threshold,
		homeCount:  make([]int, nodes),
		homeLimit:  homeLimit,
		invalidate: inv,
		writeback:  wb,
	}
}

// Reset clears every per-run table while retaining the dense-chunk storage,
// so a recycled directory serves the same page ranges without reallocating.
// The node count and callbacks are kept: the callbacks are bound to the
// owning machine, which is itself recycled as a unit.
func (d *Directory) Reset(homeLimit, threshold int) {
	d.threshold = threshold
	d.homeLimit = homeLimit
	d.pages.Reset()
	for i := range d.touched {
		d.touched[i] = 0
	}
	d.pageCount = 0
	for i := range d.homeCount {
		d.homeCount[i] = 0
	}
	d.rrNext = 0
}

// SetRecorder attaches a flight recorder for refetch-hot events (nil
// detaches).
func (d *Directory) SetRecorder(r *obs.Recorder) { d.rec = r }

// entry returns the live entry for page p, or nil when the page has no home
// yet.
func (d *Directory) entry(p addr.Page) *pageEntry {
	idx, ok := p.Index()
	if !ok {
		return nil
	}
	e := d.pages.Get(int(idx))
	if e == nil || !e.present {
		return nil
	}
	return e
}

// createEntry installs a fresh entry for page p with the given home.
func (d *Directory) createEntry(p addr.Page, home int) *pageEntry {
	e := d.pages.GetOrCreate(int(p.MustIndex()))
	e.present = true
	e.home = home
	d.pageCount++
	return e
}

// Home returns the page's home node, or -1 if the page has no home yet.
func (d *Directory) Home(p addr.Page) int {
	e := d.entry(p)
	if e == nil {
		return -1
	}
	return e.home
}

// AssignHome performs first-touch home allocation for page p touched first
// by node `toucher`, honoring the proportional cap: "we extended the first
// touch allocation algorithm to distribute home pages equally to nodes by
// limiting the number of home pages that are allocated at each node ...
// Once this limit is reached, remaining pages are allocated in a round
// robin fashion to nodes that have not reached the limit." It returns the
// chosen home.
func (d *Directory) AssignHome(p addr.Page, toucher int) int {
	if e := d.entry(p); e != nil {
		return e.home
	}
	home := toucher
	if d.homeLimit > 0 && d.homeCount[toucher] >= d.homeLimit {
		home = -1
		for i := 0; i < d.nodes; i++ {
			cand := (d.rrNext + i) % d.nodes
			if d.homeCount[cand] < d.homeLimit {
				home = cand
				d.rrNext = (cand + 1) % d.nodes
				break
			}
		}
		if home < 0 {
			// Every node is at its limit; fall back to plain round
			// robin so allocation still succeeds.
			home = d.rrNext
			d.rrNext = (d.rrNext + 1) % d.nodes
		}
	}
	d.homeCount[home]++
	d.createEntry(p, home)
	return home
}

// ForceHome assigns page p to an explicit home (used by workloads that
// pre-place data, and by tests).
func (d *Directory) ForceHome(p addr.Page, home int) {
	if d.entry(p) != nil {
		return
	}
	d.homeCount[home]++
	d.createEntry(p, home)
}

// HomePages returns the number of home pages owned by node i.
func (d *Directory) HomePages(i int) int { return d.homeCount[i] }

// FetchResult describes the directory's handling of one block fetch.
type FetchResult struct {
	Home          int       // the page's home node
	Forwarded     bool      // dirty at a third node: three-hop transfer
	ForwardOwner  int       // the owner that supplied the block (if Forwarded)
	Invalidations int       // sharers invalidated (write fetches)
	Refetch       bool      // requester was already in the copyset
	RefetchCount  uint32    // post-increment refetch counter for (page, node)
	Class         MissClass // cold/induced/conflict classification
}

// Fetch processes a block fetch from `node` (which must not be the home —
// home accesses are satisfied by local memory and never reach the
// directory). It applies the MSI transition, invalidating or downgrading
// other holders via the callbacks, and returns the classification.
//
// haveData marks an ownership upgrade: the node already holds valid data
// (in its page cache or RAC) and only needs write permission. Upgrades are
// coherence actions, not conflict misses, so they neither bump the refetch
// counter nor count as data misses ("this request is a refetch caused by a
// conflict miss, and not a coherence or cold miss").
func (d *Directory) Fetch(node int, b addr.Block, write, haveData bool) FetchResult {
	p := b.Page()
	e := d.entry(p)
	if e == nil {
		panic(fmt.Sprintf("directory: fetch of unallocated page %v", p))
	}
	bd := &e.blocks[b.Index()]
	bit := uint64(1) << uint(node)
	idx := b.Index()

	res := FetchResult{Home: e.home}
	e.remoteAccessed |= bit
	if pi := int(p.MustIndex()); pi < len(d.touched) {
		d.touched[pi] = 1
	} else {
		d.touched = append(d.touched, make([]uint8, pi+1-len(d.touched))...)
		d.touched[pi] = 1
	}

	// Classification first (based on prior state).
	switch {
	case e.everFetched[idx]&bit == 0:
		res.Class = ColdEssential
	case e.remapFlushed[idx]&bit != 0:
		res.Class = ColdInduced
	default:
		res.Class = Conflict
	}

	// Refetch detection: requester already in the copyset and actually
	// refetching data it conflict-missed on.
	if bd.copyset&bit != 0 && !haveData {
		res.Refetch = true
		e.refetch[node]++
		res.RefetchCount = e.refetch[node]
		if int(e.refetch[node]) >= d.threshold {
			if d.rec != nil && e.everHot&bit == 0 {
				// First crossing of the initial threshold for this
				// (page, node): the page just became relocation-hot.
				d.rec.Emit(obs.EvRefetchHot, node, uint32(p.MustIndex()), e.refetch[node])
			}
			e.everHot |= bit
		}
	} else {
		res.RefetchCount = e.refetch[node]
	}

	// MSI transition.
	switch bd.state {
	case Uncached:
		// Supplied from home memory.
	case SharedState:
		if write {
			// Invalidate every sharer except the requester.
			for n := 0; n < d.nodes; n++ {
				nb := uint64(1) << uint(n)
				if bd.copyset&nb != 0 && n != node {
					d.invalidate(n, b)
					res.Invalidations++
				}
			}
			bd.copyset = 0
		}
	case Modified:
		owner := int(bd.owner)
		if owner != node {
			res.Forwarded = true
			res.ForwardOwner = owner
			d.writeback(owner, b, write)
			if write {
				res.Invalidations++ // the owner loses its copy
				bd.copyset = 0
			} else {
				bd.copyset = uint64(1) << uint(owner)
			}
		}
	}

	if write {
		bd.state = Modified
		bd.owner = uint8(node)
		bd.copyset = bit
	} else {
		if bd.state != Modified || int(bd.owner) != node {
			bd.state = SharedState
		}
		bd.copyset |= bit
	}

	e.everFetched[idx] |= bit
	e.remapFlushed[idx] &^= bit
	return res
}

// HomeWrite records a write by the home node itself: remote copies must be
// invalidated (the home snoops its own bus; no network request is needed to
// reach the directory). It returns the number of invalidations sent.
func (d *Directory) HomeWrite(b addr.Block) int {
	p := b.Page()
	idx, ok := p.Index()
	if !ok {
		return 0
	}
	if int(idx) >= len(d.touched) || d.touched[idx] == 0 {
		// No remote copies ever existed: nothing to invalidate, and the
		// state transition below would write values already in place.
		return 0
	}
	e := d.entry(p)
	if e == nil {
		return 0
	}
	bd := &e.blocks[b.Index()]
	home := e.home
	inv := 0
	switch bd.state {
	case SharedState:
		for n := 0; n < d.nodes; n++ {
			nb := uint64(1) << uint(n)
			if bd.copyset&nb != 0 && n != home {
				d.invalidate(n, b)
				inv++
			}
		}
	case Modified:
		if int(bd.owner) != home {
			d.writeback(int(bd.owner), b, true)
			inv++
		}
	}
	bd.state = Uncached
	bd.copyset = 0
	return inv
}

// FlushNode removes node from every copyset of page p (an explicit page
// flush during remapping writes back dirty data and surrenders the copies)
// and marks the blocks the node held as remap-flushed, so their next fetch
// classifies as an induced cold miss; blocks already lost to replacement
// remain conflict misses. It returns the number of blocks the node held and
// how many of them it owned dirty.
func (d *Directory) FlushNode(p addr.Page, node int) (held, dirty int) {
	e := d.entry(p)
	if e == nil {
		return 0, 0
	}
	bit := uint64(1) << uint(node)
	for i := range e.blocks {
		bd := &e.blocks[i]
		if bd.copyset&bit == 0 {
			continue
		}
		held++
		bd.copyset &^= bit
		if bd.state == Modified && int(bd.owner) == node {
			dirty++
			bd.state = Uncached
		} else if bd.copyset == 0 && bd.state == SharedState {
			bd.state = Uncached
		}
		e.remapFlushed[i] |= bit
	}
	return held, dirty
}

// HomeRead records a read by the home node itself. When the block is dirty
// at a remote owner the home must retrieve it first; the owner downgrades
// to a clean sharer. fetched reports whether that retrieval was needed.
func (d *Directory) HomeRead(b addr.Block) (owner int, fetched bool) {
	idx, ok := b.Page().Index()
	if !ok {
		return 0, false
	}
	if int(idx) >= len(d.touched) || d.touched[idx] == 0 {
		// No remote copies ever existed, so no block can be dirty remotely.
		return 0, false
	}
	e := d.entry(b.Page())
	if e == nil {
		return 0, false
	}
	bd := &e.blocks[b.Index()]
	home := e.home
	if bd.state == Modified && int(bd.owner) != home {
		owner = int(bd.owner)
		d.writeback(owner, b, false)
		bd.state = SharedState
		bd.copyset = uint64(1) << uint(owner)
		return owner, true
	}
	return 0, false
}

// WritebackDirty records that a node wrote a dirty remote block back to the
// home (an L1 or RAC replacement of owned data). The home's copy becomes
// current; the block drops to Shared with the writer retained in the
// copyset, the same conservative imprecision as silent clean replacement —
// so a later refetch by the writer is still recognized as a conflict miss.
func (d *Directory) WritebackDirty(node int, b addr.Block) {
	e := d.entry(b.Page())
	if e == nil {
		return
	}
	bd := &e.blocks[b.Index()]
	if bd.state == Modified && int(bd.owner) == node {
		bd.state = SharedState
		bd.copyset |= uint64(1) << uint(node)
	}
}

// DropCopy removes node from block b's copyset without marking induced-cold
// state; used when a node silently loses a block to coherence invalidation
// (the caller already invalidated the caches).
func (d *Directory) DropCopy(node int, b addr.Block) {
	e := d.entry(b.Page())
	if e == nil {
		return
	}
	bd := &e.blocks[b.Index()]
	bit := uint64(1) << uint(node)
	bd.copyset &^= bit
	if bd.state == Modified && int(bd.owner) == node {
		bd.state = Uncached
	} else if bd.copyset == 0 && bd.state == SharedState {
		bd.state = Uncached
	}
}

// MigratePage moves page p's home to newHome (the MIG-NUMA extension):
// every cached copy anywhere is invalidated through the callbacks, block
// states reset, refetch counters cleared (the placement changed, so the
// old evidence is void), and home accounting updated. Nodes that held
// copies are marked remap-flushed so their next fetch classifies as an
// induced cold miss. It returns the number of copies invalidated and how
// many blocks were dirty at some node.
func (d *Directory) MigratePage(p addr.Page, newHome int) (invalidated, dirty int) {
	e := d.entry(p)
	if e == nil {
		return 0, 0
	}
	for i := range e.blocks {
		bd := &e.blocks[i]
		if bd.state == Modified {
			dirty++
		}
		for n := 0; n < d.nodes; n++ {
			bit := uint64(1) << uint(n)
			if bd.copyset&bit == 0 {
				continue
			}
			d.invalidate(n, p.BlockAt(i))
			invalidated++
			if e.everFetched[i]&bit != 0 {
				e.remapFlushed[i] |= bit
			}
		}
		bd.state = Uncached
		bd.copyset = 0
	}
	for n := 0; n < d.nodes; n++ {
		e.refetch[n] = 0
	}
	d.homeCount[e.home]--
	d.homeCount[newHome]++
	e.home = newHome
	return invalidated, dirty
}

// Refetches returns the refetch counter for (page, node).
func (d *Directory) Refetches(p addr.Page, node int) uint32 {
	e := d.entry(p)
	if e == nil {
		return 0
	}
	return e.refetch[node]
}

// ResetRefetch zeroes the refetch counter for (page, node); the hybrids do
// this when the page changes mode at that node.
func (d *Directory) ResetRefetch(p addr.Page, node int) {
	if e := d.entry(p); e != nil {
		e.refetch[node] = 0
	}
}

// State returns the MSI state and copyset of a block (for tests).
func (d *Directory) State(b addr.Block) (BlockState, uint64) {
	e := d.entry(b.Page())
	if e == nil {
		return Uncached, 0
	}
	bd := &e.blocks[b.Index()]
	return bd.state, bd.copyset
}

// Table6 returns, summed over nodes: the number of (page, node) pairs where
// the node accessed a remote page, and the number where the refetch count
// ever reached the initial threshold. These are the paper's "Total Remote
// Pages" and "Relocated Pages" columns.
func (d *Directory) Table6() (remote, relocated int64) {
	d.pages.Range(func(_ int, e *pageEntry) bool {
		if !e.present {
			return true
		}
		for n := 0; n < d.nodes; n++ {
			bit := uint64(1) << uint(n)
			if n == e.home {
				continue
			}
			if e.remoteAccessed&bit != 0 {
				remote++
			}
			if e.everHot&bit != 0 {
				relocated++
			}
		}
		return true
	})
	return remote, relocated
}

// Pages returns the number of pages with assigned homes.
func (d *Directory) Pages() int { return d.pageCount }
