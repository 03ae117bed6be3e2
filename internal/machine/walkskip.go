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
// stop at the deadline with references left:
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
//     pushes one event at now + kq*per — the one push below, made at the
//     same point of the event order, so FIFO ties resolve as before.
//
// The stream itself is not moved: two AdvanceWalk calls within one walk
// compose (each leaves the cursor where decoding would), so the kq
// references of every served event are advanced past in one AdvanceWalk
// of their sum when the record is dropped, before runNode next reads the
// stream. Nothing else reads a node's stream.
func (m *Machine) serveCruise(nd *node, now int64) bool {
	c := &nd.cruise
	if nd.blocked != 0 || nd.invGen != c.gen || c.left <= c.kq || now+m.quantum > nd.nextDaemon ||
		nd.id == 0 && (m.sampleIntv > 0 && now >= m.nextSample || m.epochIntv > 0 && now >= m.nextEpoch) {
		nd.dropCruise()
		return false
	}
	c.left -= c.kq
	c.owed += c.kq
	nd.st.L1Hits += c.kq
	nd.st.Time[stats.UInstr] += c.uinstr
	if c.shared {
		nd.st.SharedRefs += c.kq
		nd.st.Time[stats.UShMem] += c.stall
	} else {
		nd.st.PrivateRefs += c.kq
		nd.st.Time[stats.ULcMem] += c.stall
	}
	m.q.Push(sim.Event{Time: now + c.cycles, Node: int32(nd.id)})
	m.cruised++
	return true
}

// dropCruise applies the record's deferred cursor move and clears it.
func (nd *node) dropCruise() {
	if nd.cruise.owed > 0 {
		nd.chunks.AdvanceWalk(nd.cruise.owed)
	}
	nd.cruise = cruise{}
}
