package machine

import (
	"ascoma/internal/addr"
	"ascoma/internal/sim"
	"ascoma/internal/stats"
	"ascoma/internal/workload"
)

// walkMemo is a node's last walk verification: the walk geometry it
// probed (compile gives a run of equal walks one *Walk), the L1 generation
// (node.invGen) it probed under, and the outcome.
type walkMemo struct {
	w    *workload.Walk
	gen  uint32
	hits bool // every position of a pass hits the L1
}

// skipWalk consumes references of the walk an exhausted window would decode
// next, in closed form, when every position of the walk's pass hits nd's L1
// (verifyWalk). It returns the new local clock, == now when it did not
// apply. The caller guarantees now < min(deadline, nd.nextDaemon).
//
// In an L1-resident compute phase a node sweeps the same tile pass after
// pass, and each reference of the sweep is fully determined by local
// state: it consumes Think + L1HitCycles cycles and bumps three per-node
// counters; no other node sees it, no shared resource is occupied and no
// event is scheduled.
//
// Exactness argument, against runNode's per-reference loop, which resolves
// each reference through access:
//
//   - Outcome: each position j issues the same operation on the same line
//     in every pass, and verification probed exactly that pair with
//     access's hit predicate (cache.L1.Lookup, which is time-independent
//     and has no side effect). A hit outcome depends only on the line's
//     tag and its valid and writable bits; every change to those bumps
//     invGen — cross-node callbacks, and the node's own l1Fill, relocate
//     and evict — and verification is keyed on it. Hits themselves never
//     change those bits, so while invGen holds every reference of the walk
//     hits, pass after pass.
//   - Bounds: the per-reference loop checks now against B = min(deadline,
//     nextDaemon) before each reference and then adds per = think +
//     L1HitCycles, a constant here. It therefore issues exactly
//     k = ceil((B-now) / per) references, or the walk's remainder if that
//     is smaller — the k consumed below.
//   - Accounting: access's hit path adds, per reference, think to UInstr
//     and to now, one shared or private ref (the walk never crosses a
//     region boundary), one L1 hit and L1HitCycles to UShMem or ULcMem and
//     to now. Every reference of the walk adds the same deltas, so k
//     references add k times each.
//   - Writebacks: a write hit needs a writable line, and in this L1 a
//     writable line is the dirty one, so no hit changes what later
//     evictions and flushes write back (cache.TestL1WritableImpliesDirty).
//   - Stream: AdvanceWalk leaves the decode cursor where decoding the k
//     references would have; the window stays empty, so the next refill
//     decodes from there.
//
// A skip that stops at the quantum deadline, with references of the walk
// left, fills the node's cruise record (see cruise).
//
// Checked runs never get here: the checker hooks every L1 hit, so runNode
// does not call skipWalk under it. A walk of sync operations never
// verifies, and sampling is unaffected: takeSample runs only at runNode
// entry, and a skip never crosses the quantum deadline.
func (m *Machine) skipWalk(nd *node, now, deadline int64) int64 {
	w, pass, i := nd.nextWalk()
	if w == nil || !nd.verifyWalk(w, i) {
		return now
	}
	bound := min(deadline, nd.nextDaemon)
	think := max(int64(w.Think), 0)
	hit := m.p.L1HitCycles
	per := think + hit
	k := w.Remaining(pass, i)
	if n := (bound - now + per - 1) / per; n < k {
		if deadline <= nd.nextDaemon {
			m.fillCruise(nd, w, think, k-n)
		}
		k = n
	}
	nd.chunks.AdvanceWalk(k)
	nd.st.L1Hits += k
	nd.st.Time[stats.UInstr] += k * think
	if addr.IsShared(w.Base) {
		nd.st.SharedRefs += k
		nd.st.Time[stats.UShMem] += k * hit
	} else {
		nd.st.PrivateRefs += k
		nd.st.Time[stats.ULcMem] += k * hit
	}
	return now + k*per
}

// nextWalk reports the node's consumed window to the stream and asks for
// the walk it decodes next, with its cursor (workload.Compiled.NextWalk).
// Call it only with an exhausted window; the window stays empty, so the
// next refillWindow decodes from the stream's cursor.
func (nd *node) nextWalk() (w *workload.Walk, pass, i int64) {
	nd.chunks.Skip(nd.pendPos)
	nd.pend, nd.pendPos = nd.pend[:0], 0
	return nd.chunks.NextWalk()
}

// verifyWalk reports whether every position of a pass over w hits nd's L1
// with its own operation and the walk stays inside one address region
// (shared, or private below or above the shared region). The outcome is
// memoized with the geometry pointer and the L1 generation; a memo is
// reused while both still match. at is the walk's cursor within its pass,
// where probing starts.
func (nd *node) verifyWalk(w *workload.Walk, at int64) bool {
	mm := &nd.walk
	if mm.w == w && mm.gen == nd.invGen {
		return mm.hits
	}
	*mm = walkMemo{w: w, gen: nd.invGen}
	first := w.Base
	last := first + addr.GVA((w.Count-1)*w.Stride)
	if w.Op > workload.Write || last < first ||
		crosses(first, last, addr.SharedBase) || crosses(first, last, addr.PrivateBase) {
		return false
	}
	// Probe from the cursor on, wrapping around: the positions at and past
	// the cursor are the ones the current pass has not touched yet, so a
	// walk that does not verify (a cold first pass, a tile larger than the
	// L1) usually fails on the first probe.
	for c, j := int64(0), at; c < w.Count; c++ {
		if !nd.l1.Lookup(addr.LineOf(first+addr.GVA(j*w.Stride)), w.Write(j)) {
			return false
		}
		if j++; j == w.Count {
			j = 0
		}
	}
	mm.hits = true
	return true
}

// crosses reports whether boundary b lies in (first, last].
func crosses(first, last, b addr.GVA) bool { return first < b && last >= b }

// cruise is a node's record of a walk skip that stopped at its quantum
// deadline: the verified walk, the L1 generation it verified under, and
// what every later quantum of that walk consumes. While it holds, the run
// loop serves the node's events from it (serveCruise) instead of calling
// runNode, and defers the stream's cursor move to one AdvanceWalk when the
// record is dropped (dropCruise).
type cruise struct {
	w    *workload.Walk // nil: no record
	gen  uint32         // node.invGen the walk verified under
	left int64          // references of the walk not yet consumed
	owed int64          // references served but not yet advanced past in the stream

	// Per-quantum deltas: kq = ceil(Quantum / per) references, per =
	// think + L1HitCycles.
	kq     int64
	cycles int64 // kq * per
	uinstr int64 // kq * think, to Time[UInstr]
	stall  int64 // kq * L1HitCycles, to Time[UShMem] or Time[ULcMem]
	shared bool  // the walk lies in the shared region
}

// fillCruise records a walk skip that is about to stop at the quantum
// deadline with left references of w still to come; think is the walk's
// clamped think time.
func (m *Machine) fillCruise(nd *node, w *workload.Walk, think, left int64) {
	hit := m.p.L1HitCycles
	kq := (m.quantum + think + hit - 1) / (think + hit)
	nd.cruise = cruise{
		w: w, gen: nd.invGen, left: left,
		kq: kq, cycles: kq * (think + hit), uinstr: kq * think, stall: kq * hit,
		shared: addr.IsShared(w.Base),
	}
}

// serveCruise serves nd's event at now from its cruise record and reports
// whether it did; when it does not, it drops the record and the caller
// runs runNode. It serves the event only when runNode would reach skipWalk
// straight away and skipWalk would consume a whole quantum of the walk and
// stop at the deadline with references left (cruiseRun):
//
//   - runNode: the node is unblocked (its entry check), node 0 takes no
//     sample or epoch at now (its next two checks, mirrored exactly), and
//     now+Quantum <= nextDaemon, so the daemon does not run first. The
//     window is empty (nextWalk emptied it and nothing decoded since), and
//     a record exists only in an unchecked run, so runNode calls skipWalk
//     at once, with now and deadline = now+Quantum.
//   - skipWalk: the stream's next walk is still w — more than kq of its
//     references were left at the last event, and the deferred advance
//     keeps the cursor inside it — and the memo holds (w, gen) with hits,
//     so with invGen == gen verifyWalk answers true from the memo. The
//     bound is the deadline, so it consumes ceil(Quantum/per) = kq
//     references (fewer than left), adds the record's deltas, and returns
//     now + kq*per.
//   - Back in runNode: now + kq*per >= deadline ends its loop, and it
//     pushes one event at now + kq*per.
//
// Having served that quantum, serveCruise also serves every later cruise
// quantum, of nd and of every other cruising node, that the run loop would
// pop before the next event that can act (cruiseHorizon).
//
// The stream itself is not moved: two AdvanceWalk calls within one walk
// compose (each leaves the cursor where decoding would), so the kq
// references of every served quantum are advanced past in one AdvanceWalk
// of their sum when the record is dropped, before runNode next reads the
// stream. Nothing else reads a node's stream.
func (m *Machine) serveCruise(nd *node, now int64) bool {
	run := m.cruiseRun(nd, now)
	if run == 0 {
		nd.dropCruise()
		return false
	}
	m.cruiseHorizon(nd, now, run)
	return true
}

// cruiseRun returns how many quanta of nd's cruise record the run loop
// would serve back to back from nd's event at t: the quanta at t, t+cycles,
// t+2*cycles, ... before the first that serveCruise or runLoop refuses. A
// quantum is refused when the node is blocked or its L1 generation moved,
// when no more than kq references of the walk are left, when the daemon
// wakes within the quantum (t+Quantum > nextDaemon), when node 0 owes a
// sample or an epoch at t, and when t is past MaxCycles. Each condition
// holds for every quantum after the first it holds for, so the count is
// their minimum.
func (m *Machine) cruiseRun(nd *node, t int64) int64 {
	c := &nd.cruise
	if c.w == nil || nd.blocked != 0 || nd.invGen != c.gen {
		return 0
	}
	n := (c.left - 1) / c.kq // quanta j with left - j*kq > kq
	n = min(n, upTo(nd.nextDaemon-m.quantum-t, c.cycles))
	if m.maxCycles > 0 {
		n = min(n, upTo(m.maxCycles-t, c.cycles))
	}
	if nd.id == 0 {
		if m.sampleIntv > 0 {
			n = min(n, below(m.nextSample-t, c.cycles))
		}
		if m.epochIntv > 0 {
			n = min(n, below(m.nextEpoch-t, c.cycles))
		}
	}
	return n
}

// upTo returns the number of j >= 0 with j*per <= span.
func upTo(span, per int64) int64 {
	if span < 0 {
		return 0
	}
	return span/per + 1
}

// below returns the number of j >= 0 with j*per < span.
func below(span, per int64) int64 {
	if span <= 0 {
		return 0
	}
	return (span + per - 1) / per
}

// chain is one cruising node's run of quanta in a cruiseHorizon batch.
type chain struct {
	t      int64 // the chain's first pending event
	cycles int64 // its period
	served int64 // quanta served from t on
	idx    int   // its first event's ring position; -1 for the popped node
	nd     *node
}

// next returns the time of the chain's first unserved quantum.
func (c *chain) next() int64 { return c.t + c.served*c.cycles }

// cruiseHorizon serves, after nd's quantum at now, every cruise quantum the
// per-event loop would pop before H, the time of the stopper: the first
// event that would not be served from a cruise record. run is the number
// of quanta nd's record serves from now on (cruiseRun).
//
// Exactness: a served quantum touches only its own node's statistics and
// record and pushes that node's next event, so the per-event loop's state
// once it has popped every event before H depends on the order of the pops
// only through the ring. Every event before H is a cruise quantum: the
// ring is sorted, so the entries before H are a prefix, each of them a
// cruising node whose quanta from its event on are served until its own
// refusal (cruiseRun), and H is no later than the first ring entry that is
// not served and than every chain's first refused quantum. Events at H are
// left for the loop; the stopper is among them. A chain with first event t
// and period cycles is then served ceil((H-t)/cycles) quanta (nd's at
// least its first, which popped before any event at now), with the
// record's deltas multiplied by that count, and its next event lands at or
// after H. The ring is rebuilt as the per-event loop leaves it. Equal-time
// events pop in insertion order, and an event is inserted when its parent
// pops, so:
//
//   - a ring entry left at or after H was inserted before the batch, so it
//     precedes every event the batch creates at its time — Push puts each
//     new event after every entry whose time is not later;
//   - of two events the batch creates at one time T, the one with the
//     longer period has its parent at the earlier time, so it goes first;
//     with equal periods the parents were at one time too, and the order
//     recurses to the chains' first events: the chain with fewer quanta
//     since its first event reaches a ring entry, which precedes the
//     other's batch-created event at that time, so it goes first; with
//     equal counts too the first events were ring entries at one time, in
//     ring order, nd's (popped already) first.
//
// The new events are pushed in that order. The batch allocates nothing:
// a machine has at most 64 nodes, each with at most one pending event.
func (m *Machine) cruiseHorizon(nd *node, now, run int64) {
	var chains [64]chain
	chains[0] = chain{t: now, cycles: nd.cruise.cycles, idx: -1, nd: nd}
	h := now + run*nd.cruise.cycles
	n := 1
	for k := 0; k < m.q.Len(); k++ {
		ev := m.q.At(k)
		if ev.Time >= h {
			break
		}
		o := m.nodes[ev.Node]
		r := m.cruiseRun(o, ev.Time)
		if r == 0 || n == len(chains) {
			h = ev.Time
			break
		}
		chains[n] = chain{t: ev.Time, cycles: o.cruise.cycles, idx: k, nd: o}
		n++
		h = min(h, ev.Time+r*o.cruise.cycles)
	}
	// The ring entries served are the prefix before h: every scanned entry
	// is at or before h.
	for n > 1 && chains[n-1].t >= h {
		n--
	}
	for range n - 1 {
		m.q.Pop()
	}
	for i := range n {
		c := &chains[i]
		c.served = max((h-c.t+c.cycles-1)/c.cycles, 1)
		m.serveQuanta(c.nd, c.served)
		// Insertion sort by the per-event loop's insertion order.
		j := i
		for ; j > 0 && pushesBefore(c, &chains[j-1]); j-- {
		}
		if j < i {
			x := *c
			copy(chains[j+1:i+1], chains[j:i])
			chains[j] = x
		}
	}
	for i := range n {
		m.q.Push(sim.Event{Time: chains[i].next(), Node: int32(chains[i].nd.id)})
	}
}

// pushesBefore reports whether the per-event loop inserts a's next event
// before b's (cruiseHorizon's tie rule).
func pushesBefore(a, b *chain) bool {
	if ta, tb := a.next(), b.next(); ta != tb {
		return ta < tb
	}
	if a.cycles != b.cycles {
		return a.cycles > b.cycles
	}
	if a.served != b.served {
		return a.served < b.served
	}
	return a.idx < b.idx
}

// serveQuanta serves k quanta of nd's cruise record: the statistics each
// quantum's skipWalk would add, with the stream's cursor move deferred to
// dropCruise.
func (m *Machine) serveQuanta(nd *node, k int64) {
	c := &nd.cruise
	refs := k * c.kq
	c.left -= refs
	c.owed += refs
	nd.st.L1Hits += refs
	nd.st.Time[stats.UInstr] += k * c.uinstr
	if c.shared {
		nd.st.SharedRefs += refs
		nd.st.Time[stats.UShMem] += k * c.stall
	} else {
		nd.st.PrivateRefs += refs
		nd.st.Time[stats.ULcMem] += k * c.stall
	}
	m.cruised += k
}

// dropCruise applies the record's deferred cursor move and clears it.
func (nd *node) dropCruise() {
	if nd.cruise.owed > 0 {
		nd.chunks.AdvanceWalk(nd.cruise.owed)
	}
	nd.cruise = cruise{}
}
