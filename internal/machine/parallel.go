package machine

// The deterministic parallel simulation core (DESIGN.md §11).
//
// The event loop's dominant work is provably node-local: the L1-hit
// fast-forward (fastforward.go) touches only nd.l1, the node's borrowed
// chunk window, and nd.st, and chunk decoding touches only the node's
// stream. Everything else — misses walking directory/bus/network/bank
// resource chains, daemon wakes, barriers, locks, TLB shootdowns — is
// globally visible. The parallel core pipelines the two:
//
//   - Arming (commit goroutine): when a runnable chunked node's next
//     dispatch is worth precomputing (its first pending reference is an L1
//     hit), the commit goroutine captures everything the scan needs into
//     the node's entry — a clone of the stream's decode state
//     (workload.Compiled.CopyStateFrom), a snapshot of the L1
//     (cache.L1.SnapshotInto), the dispatch time, the daemon deadline, and
//     the node's invalidation generation — and submits the entry to a work
//     queue (internal/par). Nodes are armed both by a periodic queue sweep
//     over the epoch window W = quantum + min network hop latency +
//     NetPortOccupancy (the conservative-PDES lookahead bound) and, in
//     steady state, re-armed immediately when their previous precompute is
//     fully consumed — so the pipeline sustains itself without barriers.
//   - Scanning (queue workers): ffScan precomputes up to parLookahead
//     quanta of the node's fast-forward progress against the captured
//     snapshot, recording write-hit lines instead of setting dirty bits —
//     one segment of staged stat deltas per quantum. The scan reads and
//     writes nothing but its own entry, so workers never touch live
//     machine state and scheduling is race-free by construction.
//   - Commit (commit goroutine): events pop from the unmodified sim.Queue
//     in the exact sequential order. At each dispatch the node either
//     applies its next precomputed segment in O(1) (add the staged deltas,
//     replay the recorded dirty marks through Lookup, advance the clock) or
//     — when the precompute was invalidated, never armed, or not yet
//     scanned and already stale — falls back to the inline
//     interpretive/fast-forward path on live state. When a valid scan is
//     still in flight at its dispatch, the commit goroutine helps drain the
//     work queue until it completes: waiting never idles a core, and the
//     simulation's throughput becomes scan throughput — which scales with
//     the worker count — instead of single-thread fast-forward speed.
//
// The stream clone is installed once, by pointer swap, when the node's
// last precomputed segment applies; until then the live stream is stale,
// but nothing can observe it: between two of the node's own dispatches no
// other node reads its stream, and every intermediate segment ends at its
// quantum deadline, so those dispatches reschedule without touching the
// reference window.
//
// Exactness does not rest on the window: it rests on the commit replaying
// the sequential dispatch order and on generation validation. Every
// cross-node L1 mutation (invalidation and downgrade callbacks, the home
// bus snoop in remoteFetch, migration's old-home flush) bumps the target
// node's invGen; a node's precomputed segments apply only while its invGen
// still equals the value captured at arming, so a precompute that any
// other node's committed action could have perturbed is discarded
// wholesale and the dispatch re-executes inline on live state (after
// fast-forwarding the live stream over the references already-applied
// segments consumed — plain decode, no simulation). A discarded precompute
// is otherwise invisible: the scan mutated only its entry. The
// fast-forward exactness argument (fastforward.go) covers each scanned
// reference; the only new claim is that a scan may stop *early* anywhere
// (quantum boundary, full write buffer, lookahead cap) and stay exact,
// because apply installs the prefix's effects and the inline loop resumes
// from precisely the state the sequential machine would have had at that
// reference.
//
// Worker scheduling carries no information: each armed node is an
// independent task writing only its own entry behind an atomic
// publish/consume handoff, so results are bit-identical at any core count
// — including cores=1, which never takes this code path at all
// (RunContext branches to the unchanged sequential loop).

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"

	"ascoma/internal/addr"
	"ascoma/internal/cache"
	"ascoma/internal/par"
	"ascoma/internal/stats"
	"ascoma/internal/workload"
)

// parLookahead is the number of consecutive quanta one scan precomputes per
// node. Deeper lookahead amortizes the per-arm clone and snapshot over more
// parallel work; segments are validated per dispatch, so depth never risks
// exactness, only wasted speculation when an invalidation lands mid-scan.
const parLookahead = 32

// parWritesCap bounds the per-node buffer of recorded write-hit lines. A
// scan that fills it simply stops early (exact, see above), so huge custom
// quanta cannot force unbounded allocation.
const parWritesCap = 8192

// parArmBackoffMax caps the exponential back-off on fruitless arming
// sweeps (see runLoopParallel): in a miss-bound phase the core attempts a
// sweep at most once per this many dispatched events, keeping the parallel
// loop within a few percent of the sequential one when there is nothing to
// precompute.
const parArmBackoffMax = 1024

// Entry states for the commit/worker handoff. Only the commit goroutine
// stores parIdle and parScan; only the scanning worker stores parReady.
// The atomic store of parScan publishes the entry's inputs to the worker;
// the store of parReady publishes the results back.
const (
	parIdle  uint32 = iota // commit owns the entry; no scan in flight
	parScan                // submitted; the worker owns the scan fields
	parReady               // scan done; commit may consume and reclaim
)

// parSeg is one precomputed quantum (or prefix of one) for a node: staged
// stat deltas, the range of recorded write-hit lines, and the cumulative
// reference count for abort reconciliation.
type parSeg struct {
	start int64 // dispatch time this segment is valid for
	end   int64 // node-local clock when the scan stopped
	cum   int   // references consumed through this segment's end
	wLo   int32 // e.writes[wLo:wHi] are the write-hit lines to mark dirty
	wHi   int32

	// Staged per-node stat deltas, mirroring fastForward's accumulators.
	k                int64 // L1 hits consumed
	uinstr           int64
	shRefs, lcRefs   int64
	shStall, lcStall int64
}

// parEntry is one node's arming state. Ownership rotates with e.state: the
// commit goroutine fills the capture fields and reads the results; the
// scanning worker touches only the scan fields between the parScan and
// parReady transitions.
type parEntry struct {
	// Commit-owned.
	next  int    // next segment to apply
	gen   uint32 // node's invGen at arming
	start int64  // event time of the dispatch the scan was armed for
	dead  bool   // results already known stale; discard at parReady
	src   *workload.Compiled

	state atomic.Uint32

	// Captured by the commit goroutine before the parScan store; read-only
	// to the worker.
	nextDaemon int64

	// Worker-owned while state == parScan. scratch is cloned from the live
	// stream at arming, so the scan starts from exact state and never reads
	// the node.
	scratch *workload.Compiled
	snap    cache.L1
	writes  []addr.Line
	segs    [parLookahead]parSeg
	nseg    int
	full    bool // scan ran to the lookahead cap without stopping early
}

// parCore drives one parallel run; it exists only while RunContext's
// parallel branch is active.
type parCore struct {
	m       *Machine
	queue   *par.Queue
	window  int64
	entries []parEntry

	// Fruitless-arming back-off (commit goroutine only): counts dispatches
	// to skip before the next arming sweep. Purely a host-performance knob —
	// arming decisions select which code path computes a dispatch, never
	// what it computes — so the counters cannot affect results.
	armSkip    int
	armBackoff int
}

// startPar builds the parallel core: per-node entries with pooled stream
// scratches and L1 snapshots and write-mark buffers retained across the
// machine's runs, and a work queue of min(cores, nodes) workers (the commit
// goroutine is one of them).
//
//ascoma:par-commit
func (m *Machine) startPar(cores int) {
	n := len(m.nodes)
	if cores > n {
		cores = n
	}
	if len(m.parEntries) != n {
		m.parEntries = make([]parEntry, n)
	}
	pc := &parCore{
		m:       m,
		entries: m.parEntries,
		window:  m.quantum + m.net.MinRemoteLatency() + m.p.NetPortOccupancy,
	}
	wcap := parLookahead * int(m.quantum)
	if wcap > parWritesCap {
		wcap = parWritesCap
	}
	for i := range pc.entries {
		e := &pc.entries[i]
		// stopPar drained every scan, so the entry is the commit
		// goroutine's; clear what the previous run left in it.
		e.state.Store(parIdle)
		e.next, e.nseg, e.dead, e.full, e.src = 0, 0, false, false, nil
		if cap(e.writes) < wcap {
			e.writes = make([]addr.Line, wcap)
		}
		e.writes = e.writes[:wcap]
		e.scratch = workload.Scratch()
		m.nodes[i].l1.SnapshotInto(&e.snap)
	}
	pc.queue = par.NewQueue(cores, pc.task)
	m.par = pc
}

// stopPar tears the core down: every in-flight scan drains (the commit
// goroutine helps), the helper goroutines exit, and the stream scratches go
// back to the workload chunk pool.
//
//ascoma:par-commit
func (m *Machine) stopPar() {
	pc := m.par
	if pc == nil {
		return
	}
	pc.queue.Quiesce()
	pc.queue.Close()
	for i := range pc.entries {
		e := &pc.entries[i]
		if e.scratch != nil {
			workload.Recycle(e.scratch)
			e.scratch = nil
		}
	}
	m.par = nil
}

// runLoopParallel is the parallel twin of RunContext's event loop. The pop
// sequence, context poll cadence, and MaxCycles semantics are identical to
// the sequential loop — runNode consumes precomputed segments through
// parCore.apply, so the dispatches themselves are the only thing that got
// cheaper. Between dispatches an arming sweep (with exponential back-off
// when fruitless) feeds nodes into the scan pipeline; consumed nodes
// re-arm themselves inside apply, so a steady fast-forward phase never
// depends on the sweep.
//
//ascoma:par-commit
func (m *Machine) runLoopParallel(ctx context.Context) {
	pc := m.par
	poll := 0
	for m.aborted == nil {
		ev, ok := m.q.Pop()
		if !ok {
			return
		}
		if poll++; poll >= ctxPollEvents {
			poll = 0
			if err := ctx.Err(); err != nil {
				m.aborted = fmt.Errorf("machine: run aborted at cycle %d: %w", ev.Time, err)
				return
			}
		}
		if m.maxCycles > 0 && ev.Time > m.maxCycles {
			m.aborted = fmt.Errorf("machine: exceeded MaxCycles=%d (arch=%v workload=%s)", m.cfg.MaxCycles, m.cfg.Arch, m.gen.Name())
			return
		}
		m.runNode(m.nodes[ev.Node], ev.Time)
		if pc.armSkip > 0 {
			pc.armSkip--
		} else if pc.armPass() == 0 {
			if pc.armBackoff < parArmBackoffMax {
				pc.armBackoff = pc.armBackoff*2 + 1
			}
			pc.armSkip = pc.armBackoff
		} else {
			pc.armBackoff, pc.armSkip = 0, 0
		}
	}
}

// armPass sweeps the event queue and arms every idle runnable chunked node
// whose next dispatch falls inside the epoch window. It returns the number
// of scans submitted; a saturated pipeline (every node busy or miss-bound)
// returns 0 and the caller backs off.
//
//ascoma:par-commit
func (pc *parCore) armPass() int {
	m := pc.m
	qn := m.q.Len()
	if qn == 0 {
		return 0
	}
	horizon := m.q.At(0).Time + pc.window
	armed := 0
	for i := 0; i < qn; i++ {
		ev := m.q.At(i)
		if ev.Time >= horizon {
			break // the queue is sorted: everything further is out of window
		}
		if pc.armNode(m.nodes[ev.Node], ev.Time) {
			armed++
		}
	}
	return armed
}

// armNode captures node state into the entry and submits a scan, if the
// node is idle, runnable, and worth scanning. The gate probes the node's
// first undelivered reference: a scan that would stop at reference zero
// (sync point, or an L1 miss the slow path must service) costs a clone and
// a snapshot for nothing, and miss-bound phases hit that case on
// essentially every node. A node whose exhausted window is followed by a
// verified walk is not armed either: its dispatch consumes the walk in
// closed form (skipWalk), which a scan's per-reference decode could only
// slow down. Refilling an exhausted window here is safe — it is the same
// deterministic decode the dispatch itself would perform, just earlier on
// the same goroutine.
//
//ascoma:par-commit
func (pc *parCore) armNode(nd *node, start int64) bool {
	e := &pc.entries[nd.id]
	if e.state.Load() != parIdle {
		return false // scan in flight or results pending consumption
	}
	if nd.blocked != 0 || nd.chunks == nil || start >= nd.nextDaemon {
		return false
	}
	src, ok := nd.chunks.(*workload.Compiled)
	if !ok {
		return false
	}
	pend := nd.pend[nd.pendPos:]
	if len(pend) == 0 {
		if w, ok := nd.nextWalk(); ok && nd.verifyWalk(&w) {
			return false // the dispatch skips the walk in closed form inline
		}
		if pend = nd.refillWindow(); len(pend) == 0 {
			return false // stream drained: the dispatch handles completion
		}
	}
	if r := &pend[0]; r.Op > workload.Write || !nd.l1.Probe(addr.LineOf(r.Addr), r.Op == workload.Write) {
		return false
	}
	e.src = src
	e.start = start
	e.gen = nd.invGen
	e.nextDaemon = nd.nextDaemon
	e.next = 0
	e.dead = false
	e.scratch.CopyStateFrom(src, nd.pendPos)
	nd.l1.SnapshotInto(&e.snap)
	e.state.Store(parScan)
	pc.queue.Submit(nd.id)
	return true
}

// task is the queue's work function: scan one armed entry and publish the
// results. Everything it touches lives in the entry — the capture made by
// armNode — so it is safe on any worker, including the commit goroutine
// helping while it waits.
//
//ascoma:par-worker
func (pc *parCore) task(id int) {
	e := &pc.entries[id]
	pc.m.ffScan(e)
	e.state.Store(parReady)
}

// ffScan precomputes up to parLookahead quanta of the armed node's
// fast-forward progress against the entry's L1 snapshot, on the entry's
// clone of the node's stream. It mirrors fastForward exactly — same bounds
// checks with the same pre-think clock, same per-reference accounting —
// except that the snapshot is probed read-only with write hits recorded
// for deferred dirty marking, and that it keeps going across quantum
// boundaries while the previous quantum was consumed in full (a dispatch
// that ends at its deadline does nothing else the scan would need to
// model; one that stops early hands the remainder to the inline path at
// commit).
//
//ascoma:hotpath
//ascoma:par-worker
func (m *Machine) ffScan(e *parEntry) {
	hitCycles := m.p.L1HitCycles
	quantum := m.quantum
	nextDaemon := e.nextDaemon
	now := e.start
	cur := e.scratch
	wn := 0
	cum := 0
	e.nseg = 0
	e.full = false
	for si := 0; si < parLookahead; si++ {
		if now >= nextDaemon {
			break // the dispatch would run the daemon before issuing
		}
		seg := &e.segs[si]
		seg.start = now
		seg.wLo = int32(wn)
		deadline := now + quantum
		var (
			k                int64
			uinstr           int64
			shRefs, lcRefs   int64
			shStall, lcStall int64
		)
		stopped := false
		for now < deadline && now < nextDaemon {
			refs := cur.Pending()
			if len(refs) == 0 {
				stopped = true // stream drained: the done path is global
				break
			}
			n := 0
			for i := range refs {
				if now >= deadline || now >= nextDaemon {
					break
				}
				r := &refs[i]
				if r.Op > workload.Write {
					stopped = true // sync ref: the slow path owns it
					break
				}
				write := r.Op == workload.Write
				line := addr.LineOf(r.Addr)
				if !e.snap.Probe(line, write) {
					stopped = true // L1 miss: replay through access at commit
					break
				}
				if write {
					if wn == len(e.writes) {
						stopped = true // dirty-mark buffer full: stop early
						break
					}
					e.writes[wn] = line
					wn++
				}
				if r.Think > 0 {
					uinstr += int64(r.Think)
					now += int64(r.Think)
				}
				if addr.IsShared(r.Addr) {
					shRefs++
					shStall += hitCycles
				} else {
					lcRefs++
					lcStall += hitCycles
				}
				now += hitCycles
				n++
			}
			cur.Skip(n)
			k += int64(n)
			if stopped {
				break
			}
			if n < len(refs) {
				break // deadline or daemon boundary inside the chunk
			}
		}
		if k == 0 {
			break // nothing consumed: leave this dispatch entirely inline
		}
		cum += int(k)
		seg.end = now
		seg.cum = cum
		seg.wHi = int32(wn)
		seg.k = k
		seg.uinstr = uinstr
		seg.shRefs, seg.lcRefs = shRefs, lcRefs
		seg.shStall, seg.lcStall = shStall, lcStall
		e.nseg = si + 1
		if stopped {
			return // partial segment: no later dispatch is precomputable
		}
	}
	e.full = e.nseg == parLookahead
}

// apply consumes the node's precomputed segment for the dispatch at `now`,
// if one is armed and still valid, and returns the advanced clock (== now
// when nothing applied). Runs on the commit goroutine from runNode, after
// the sample/epoch hooks and before the issue loop — exactly where the
// sequential path would have begun fast-forwarding. When the node's scan
// is still in flight and still valid, apply helps drain the work queue
// until it completes: segment production is the throughput bound, and a
// waiting commit goroutine is a free worker.
//
//ascoma:hotpath
//ascoma:par-commit
func (pc *parCore) apply(nd *node, now int64) int64 {
	e := &pc.entries[nd.id]
	st := e.state.Load()
	if st == parIdle {
		return now
	}
	if st == parScan {
		if e.dead || e.start != now || nd.invGen != e.gen {
			// The scan's capture is already stale (an invalidation landed, or
			// the dispatch it was armed for ran inline). Let it finish on its
			// worker — it touches only the entry — and discard at parReady.
			e.dead = true
			return now
		}
		for e.state.Load() != parReady {
			if !pc.queue.Help() {
				runtime.Gosched()
			}
		}
	}
	if e.dead {
		// No segment was ever applied from a dead entry (deadness is decided
		// at first dispatch), so the live stream needs no reconciliation.
		e.dead = false
		e.state.Store(parIdle)
		return now
	}
	if e.next == e.nseg || e.segs[e.next].start != now || nd.invGen != e.gen {
		// Invalidated (or the scan produced nothing): reconcile the live
		// stream (untouched since arming — the swap happens only at the last
		// segment) past the references the already-applied segments consumed,
		// reclaim the entry, and run this dispatch inline.
		if e.next > 0 {
			nd.advanceWindow(e.segs[e.next-1].cum)
		}
		e.next = 0
		e.state.Store(parIdle)
		return now
	}
	seg := &e.segs[e.next]
	e.next++
	// The segment's clock must be read out before the self-rearm below hands
	// the entry (and its segs array) to a fresh scan.
	end := seg.end
	// Replay the deferred dirty marks through the live cache; Lookup is the
	// same predicate the scan probed, so every one of these is a write hit.
	for i := seg.wLo; i < seg.wHi; i++ {
		nd.l1.Lookup(e.writes[i], true)
	}
	nd.st.L1Hits += seg.k
	nd.st.SharedRefs += seg.shRefs
	nd.st.PrivateRefs += seg.lcRefs
	nd.st.Time[stats.UInstr] += seg.uinstr
	nd.st.Time[stats.UShMem] += seg.shStall
	nd.st.Time[stats.ULcMem] += seg.lcStall
	if e.next == e.nseg {
		// Last precomputed segment: install the scan's end state by pointer
		// swap — the displaced live stream becomes the next arm's scratch.
		// O(1): no chunk buffer is copied.
		s := e.scratch
		e.scratch = e.src
		e.src = s
		nd.stream = s
		nd.chunks = s
		nd.pend = s.Window()
		nd.pendPos = 0
		full := e.full
		e.next = 0
		e.state.Store(parIdle)
		if full {
			// The scan ran to the lookahead cap without stopping: the node is
			// in a fast-forward phase, so restart the pipeline immediately for
			// its next dispatch (pushed at `end` by runNode) instead of
			// waiting for an arming sweep.
			pc.armNode(nd, end)
		}
	}
	return end
}

// advanceWindow fast-forwards the node's live stream over n references the
// node has already (validly) consumed through applied segments — the abort
// reconciliation path. Pure decode through the normal window machinery; no
// simulation state is touched.
func (nd *node) advanceWindow(n int) {
	for {
		pend := len(nd.pend) - nd.pendPos
		if n < pend {
			nd.pendPos += n
			return
		}
		n -= pend
		nd.pendPos += pend
		if refs := nd.refillWindow(); len(refs) == 0 {
			return // stream drained exactly at the boundary
		}
	}
}
