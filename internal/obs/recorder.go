package obs

// Kind identifies one flight-recorder event type. The numeric values are
// part of the trace format (see codec.go); append new kinds, never renumber.
type Kind uint8

const (
	// EvUpgrade: a page was remapped CC-NUMA -> S-COMA at the emitting
	// node. A = page index, B = relocation threshold that triggered it.
	EvUpgrade Kind = iota + 1
	// EvDowngrade: an S-COMA page was evicted back to CC-NUMA mode.
	// A = page index, B = page-cache hits the page had earned.
	EvDowngrade
	// EvMigrate: a page's home moved to the emitting node (MIG-NUMA).
	// A = page index, B = the old home node.
	EvMigrate
	// EvRelocDenied: a relocation interrupt found no free page and policy
	// forbade hot eviction. A = page index, B = relocation threshold.
	EvRelocDenied
	// EvDaemonWake: the pageout daemon ran below free_min. A = free-pool
	// level at wakeup, B = the node's current relocation threshold.
	EvDaemonWake
	// EvThreshold: the policy's relocation threshold changed (AS-COMA's
	// phase-change back-off raising or lowering it). A = new threshold,
	// B = old threshold.
	EvThreshold
	// EvTLBShootdown: a remap invalidated the node's cached translation.
	// A = page index, B = a ShootdownReason.
	EvTLBShootdown
	// EvRefetchHot: the directory saw a (page, node) refetch count first
	// cross the notify threshold. A = page index, B = refetch count.
	EvRefetchHot
	// EvPoolLow: the node's free pool dropped below free_min.
	// A = free pages, B = free_min.
	EvPoolLow
	// EvPoolOK: the free pool recovered to free_target after being low.
	// A = free pages, B = free_target.
	EvPoolOK
	// EvTierPromote: a hot S-COMA page moved one memory tier up (see
	// internal/mem). A = page index, B = the new (faster) tier.
	EvTierPromote
	// EvTierDemote: the pageout daemon moved a cold page one tier down
	// instead of evicting it. A = page index, B = the new (slower) tier.
	EvTierDemote
	// EvRowConflict: row-buffer conflicts accumulated at the node since
	// the previous epoch boundary (emitted at epoch cadence, not per
	// conflict). A = conflicts this epoch, B = cumulative conflicts.
	EvRowConflict

	numKinds
)

// Shootdown reasons carried in EvTLBShootdown's B payload.
const (
	ShootdownUpgrade uint32 = iota // remap for a CC-NUMA -> S-COMA upgrade
	ShootdownEvict                 // eviction back to CC-NUMA (or unmap)
	ShootdownMigrate               // global shootdown of a migrated page
)

var kindNames = [...]string{
	EvUpgrade:      "upgrade",
	EvDowngrade:    "downgrade",
	EvMigrate:      "migrate",
	EvRelocDenied:  "reloc-denied",
	EvDaemonWake:   "daemon-wake",
	EvThreshold:    "threshold",
	EvTLBShootdown: "tlb-shootdown",
	EvRefetchHot:   "refetch-hot",
	EvPoolLow:      "pool-low",
	EvPoolOK:       "pool-ok",
	EvTierPromote:  "tier-promote",
	EvTierDemote:   "tier-demote",
	EvRowConflict:  "row-conflict",
}

// String returns the event kind's name.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// NumKinds returns the number of defined event kinds (for per-kind tallies).
func NumKinds() int { return int(numKinds) }

// Event is one flight-recorder record: a cycle stamp, the emitting node,
// and two kind-specific payload words. The struct is fixed-size and the
// ring is preallocated, so emission never allocates.
type Event struct {
	Time int64  // simulated cycle of the event
	A    uint32 // payload (meaning per Kind)
	B    uint32 // payload (meaning per Kind)
	Kind Kind
	Node uint16 // emitting node id
}

// DefaultEventCap is the ring capacity NewRecorder(<=0) selects: large
// enough to hold every adaptation event of the paper-scale runs, small
// enough (~1.5 MB) to sit in a long-lived service.
const DefaultEventCap = 1 << 16

// Recorder is a fixed-capacity flight recorder: a ring of the last Cap
// events emitted, plus the count of everything ever emitted. It is
// single-threaded by design — exactly one machine writes it at a time — and
// emission is allocation-free (TestEmitZeroAlloc and TestHotPathAllocs pin
// it).
type Recorder struct {
	// Clock is the current simulated cycle, stamped onto emitted events.
	// The driving machine updates it on entry to every emitting path, so
	// instrumented subsystems without their own clock (the VM kernel, the
	// directory) emit correctly stamped events.
	Clock int64

	buf      []Event // ring storage; fixed length = capacity for live recorders
	pos      int     // next write slot
	n        int     // valid events, min(total, cap)
	total    uint64  // events ever emitted (wrap loses the oldest)
	capacity int     // declared capacity (== len(buf) except for decoded recorders)
}

// NewRecorder builds a recorder keeping the last capacity events
// (capacity <= 0 selects DefaultEventCap).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultEventCap
	}
	return &Recorder{buf: make([]Event, capacity), capacity: capacity}
}

// Emit appends one event stamped with the recorder's Clock. Callers hold a
// possibly-nil *Recorder and must check it first; keeping the nil test at
// the call site means a disabled run pays exactly one branch.
func (r *Recorder) Emit(kind Kind, node int, a, b uint32) {
	r.buf[r.pos] = Event{Time: r.Clock, A: a, B: b, Kind: kind, Node: uint16(node)}
	r.pos++
	if r.pos == len(r.buf) {
		r.pos = 0
	}
	if r.n < len(r.buf) {
		r.n++
	}
	r.total++
}

// Cap returns the ring capacity.
func (r *Recorder) Cap() int { return r.capacity }

// Len returns the number of events currently held (<= Cap).
func (r *Recorder) Len() int { return r.n }

// Total returns the number of events ever emitted; Total() - Len() events
// were overwritten by ring wrap.
func (r *Recorder) Total() uint64 { return r.total }

// Events returns the held events oldest-first as a fresh slice.
func (r *Recorder) Events() []Event {
	out := make([]Event, 0, r.n)
	if r.n < len(r.buf) {
		return append(out, r.buf[:r.n]...)
	}
	out = append(out, r.buf[r.pos:]...)
	return append(out, r.buf[:r.pos]...)
}

// Reset drops every event and rewinds the clock, keeping the ring storage.
func (r *Recorder) Reset() {
	r.Clock = 0
	r.pos = 0
	r.n = 0
	r.total = 0
}

// restore rebuilds recorder state from decoded trace data (codec.go). The
// events must be oldest-first with len(events) <= capacity. The result is
// for inspection (Events/Len/Total/Cap and re-encoding), not for further
// emission: its storage holds only the decoded events, never the full
// declared ring, so a corrupt capacity field cannot force an allocation.
func restore(capacity int, total uint64, events []Event) *Recorder {
	r := &Recorder{buf: events, capacity: capacity, n: len(events), total: total}
	if capacity > 0 {
		r.pos = r.n % capacity
	}
	return r
}
