package machine

import (
	"ascoma/internal/addr"
	"ascoma/internal/stats"
	"ascoma/internal/workload"
)

// fastForward advances nd through the maximal prefix of its pending
// reference chunk that consists of plain reads and writes hitting in the L1,
// and returns the new local clock (== now when it could not advance at all).
//
// This is the simulator's dominant regime — the paper's workloads hit the L1
// on the vast majority of references — and such a reference is fully
// determined by local state: it consumes Think + L1HitCycles cycles and
// bumps three per-node counters. None of that is visible to any other node,
// no shared resource is occupied, and no event is scheduled, so a run of k
// such references can be applied in one pass without consulting the event
// queue.
//
// Exactness argument, per reference, against the slow path in runNode/access:
//
//   - Bounds: the slow loop re-checks `now < deadline` and the daemon timer
//     before every reference; the inner loop here checks the same pair with
//     the same pre-think `now`, so fast-forward stops exactly where the slow
//     loop would have stopped issuing.
//   - L1 outcome: cache.L1.Lookup is time-independent and has no side
//     effect, so probing it here and replaying a missing reference through
//     access (via the Pending/Skip contract: unconsumed refs stay in the
//     chunk) is equivalent to calling it once.
//   - Accounting: the slow hit path does Time[UInstr]+=Think, now+=Think,
//     Shared/PrivateRefs++, L1Hits++, Time[UShMem|ULcMem]+=L1HitCycles,
//     now+=L1HitCycles. The deltas accumulated below are those exact sums.
//   - Sync/locks and the coherence checker observe references the fast path
//     never consumes: any ref with Op > Write stops the scan, and runNode
//     skips fast-forward entirely when a checker is installed (checker hooks
//     fire on L1 hits).
//
// Sampling is unaffected: takeSample runs only at runNode entry, and
// fast-forward never crosses a quantum boundary.
//
// When the window is exhausted and the stream's next instruction is a walk
// every position of which hits the L1, the walk's references are consumed
// in closed form instead of being decoded (skipWalk).
//
//ascoma:hotpath
func (m *Machine) fastForward(nd *node, now, deadline int64) int64 {
	hitCycles := m.p.L1HitCycles
	var (
		k                int   // refs consumed
		uinstr           int64 // Time[UInstr] delta
		shRefs, lcRefs   int64 // SharedRefs / PrivateRefs deltas
		shStall, lcStall int64 // Time[UShMem] / Time[ULcMem] deltas
	)
	for now < deadline && now < nd.nextDaemon {
		refs := nd.pend[nd.pendPos:]
		if len(refs) == 0 {
			if t := m.skipWalk(nd, now, deadline); t != now {
				now = t
				continue
			}
			if refs = nd.refillWindow(); len(refs) == 0 {
				break // stream drained
			}
		}
		n := 0
		for i := range refs {
			if now >= deadline || now >= nd.nextDaemon {
				break
			}
			r := &refs[i]
			if r.Op > workload.Write {
				break // sync ref: the slow path owns it
			}
			if !nd.l1.Lookup(addr.LineOf(r.Addr), r.Op == workload.Write) {
				break // L1 miss: replay through access
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
		if n == 0 {
			break
		}
		nd.pendPos += n
		k += n
		if n < len(refs) {
			break // stopped inside the chunk: blocked on a miss or sync ref
		}
	}
	if k > 0 {
		nd.st.L1Hits += int64(k)
		nd.st.SharedRefs += shRefs
		nd.st.PrivateRefs += lcRefs
		nd.st.Time[stats.UInstr] += uinstr
		nd.st.Time[stats.UShMem] += shStall
		nd.st.Time[stats.ULcMem] += lcStall
	}
	return now
}

// walkMemo is a node's last walk verification: the pass geometry it
// probed, the L1 generation (node.invGen) it probed under, and the outcome.
type walkMemo struct {
	base                  addr.GVA
	stride, count, wEvery int64
	op                    workload.Op
	gen                   uint32
	hits                  bool // every position of a pass hits the L1
}

// skipWalk consumes references of the walk an exhausted window would decode
// next, in closed form, when every position of the walk's pass hits nd's L1
// (verifyWalk). It returns the new local clock, == now when it did not
// apply. The caller guarantees now < min(deadline, nd.nextDaemon).
//
// Exactness argument, against the per-reference loop in fastForward (itself
// exact against the slow path, above):
//
//   - Outcome: each position j issues the same operation on the same line
//     in every pass, and verification probed exactly that pair with the
//     slow path's hit predicate. A hit outcome depends only on the line's
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
//   - Accounting: every reference adds the same deltas (one L1 hit, one
//     shared or private ref — the walk never crosses a region boundary —
//     think to UInstr, L1HitCycles to UShMem or ULcMem), so k references
//     add k times each.
//   - Writebacks: a write hit needs a writable line, and in this L1 a
//     writable line is the dirty one, so no hit changes what later
//     evictions and flushes write back (cache.TestL1WritableImpliesDirty).
//   - Stream: AdvanceWalk leaves the decode cursor where decoding the k
//     references would have; the window stays empty, so the next refill
//     decodes from there.
//
// Checked runs never get here: runNode skips fast-forward under the
// coherence checker.
//
//ascoma:hotpath
func (m *Machine) skipWalk(nd *node, now, deadline int64) int64 {
	w, ok := nd.nextWalk()
	if !ok || !nd.verifyWalk(&w) {
		return now
	}
	bound := min(deadline, nd.nextDaemon)
	think := max(int64(w.Think), 0)
	hit := m.p.L1HitCycles
	per := think + hit
	k := w.Remaining()
	if n := (bound - now + per - 1) / per; n < k {
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
// the walk it decodes next (workload.Chunked.NextWalk). Call it only with
// an exhausted window; the window stays empty, so the next refillWindow
// decodes from the stream's cursor.
//
//ascoma:hotpath
func (nd *node) nextWalk() (workload.Walk, bool) {
	nd.chunks.Skip(nd.pendPos)
	nd.pend, nd.pendPos = nd.pend[:0], 0
	return nd.chunks.NextWalk()
}

// verifyWalk reports whether every position of a pass over w hits nd's L1
// with its own operation and the walk stays inside one address region
// (shared, or private below or above the shared region). The outcome is
// memoized with the pass geometry and the L1 generation; a memo is reused
// while both still match.
//
//ascoma:hotpath
func (nd *node) verifyWalk(w *workload.Walk) bool {
	mm := &nd.walk
	if mm.gen == nd.invGen && mm.base == w.Base && mm.stride == w.Stride &&
		mm.count == w.Count && mm.wEvery == w.WEvery && mm.op == w.Op {
		return mm.hits
	}
	*mm = walkMemo{base: w.Base, stride: w.Stride, count: w.Count, wEvery: w.WEvery, op: w.Op, gen: nd.invGen}
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
	for c, j := int64(0), w.I; c < w.Count; c++ {
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
