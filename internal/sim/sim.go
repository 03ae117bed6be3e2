// Package sim provides the discrete-event machinery under the simulator:
// a cycle clock, an event heap, and occupancy-based resources.
//
// Each simulated processor is sequentially consistent with at most one
// outstanding miss (Table 3 of the paper), so a whole machine needs only one
// pending event per node plus a handful of daemon timers. A memory operation
// is resolved atomically at issue time by walking the chain of resources it
// occupies (bus, network ports, directory, memory banks); each Resource
// tracks the cycle at which it next becomes free, which reproduces queueing
// at the paper's contention points with O(1) work per reference.
package sim

// Time is a simulation timestamp in processor cycles (120 MHz in the default
// configuration).
type Time = int64

// Event is a scheduled occurrence: node Node's processor resumes at Time.
// Time ties are broken deterministically in insertion order so simulations
// are reproducible run to run. The struct is kept to 16 bytes — two events
// per host cache line, and ring indexing compiles to a shift — so Node is a
// narrow field.
type Event struct {
	Time Time
	Node int32
}

// Queue is a deterministic event queue ordered by (Time, insertion order).
// The zero value is ready to use.
//
// The representation is a sorted circular buffer rather than a binary heap.
// The machine keeps at most one pending event per node (plus a handful of
// timers), so the queue holds only a few entries, and each Push lands at or
// near the tail: the node that just ran advanced past the others, so its
// next event is usually the latest. Back-to-front insertion therefore
// shifts ~0-2 entries, Pop is a head-index increment, and nothing
// allocates beyond amortized buffer growth — measurably cheaper than heap
// sift operations, which dominated the event loop at one event per
// reference under miss-heavy workloads. FIFO order among equal times is
// structural: a new event is placed after every entry with Time <= its
// own, so no tie-break sequence number is needed.
type Queue struct {
	ring []Event // power-of-two capacity
	head int     // index of the earliest pending event
	n    int     // pending event count
}

// Push schedules an event.
func (q *Queue) Push(e Event) {
	if q.n == len(q.ring) {
		q.grow()
	}
	mask := len(q.ring) - 1
	// Scan backward from the tail: the new event orders after every pending
	// event whose time is <= its own (equal-time FIFO falls out of the scan
	// being strict).
	i := q.n
	for i > 0 {
		j := (q.head + i - 1) & mask
		if q.ring[j].Time <= e.Time {
			break
		}
		q.ring[(j+1)&mask] = q.ring[j]
		i--
	}
	q.ring[(q.head+i)&mask] = e
	q.n++
}

// grow doubles the ring, linearizing pending events to the front.
func (q *Queue) grow() {
	c := len(q.ring) * 2
	if c == 0 {
		c = 16
	}
	r := make([]Event, c)
	for i := 0; i < q.n; i++ {
		r[i] = q.ring[(q.head+i)&(len(q.ring)-1)]
	}
	q.ring = r
	q.head = 0
}

// Pop removes and returns the earliest event. ok is false when the queue is
// empty.
func (q *Queue) Pop() (e Event, ok bool) {
	if q.n == 0 {
		return Event{}, false
	}
	e = q.ring[q.head]
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
	return e, true
}

// Peek returns the earliest event without removing it.
func (q *Queue) Peek() (e Event, ok bool) {
	if q.n == 0 {
		return Event{}, false
	}
	return q.ring[q.head], true
}

// Len returns the number of pending events.
func (q *Queue) Len() int { return q.n }

// Reset empties the queue, retaining its storage — a recycled queue
// schedules events in exactly the order a fresh one would.
func (q *Queue) Reset() {
	q.head = 0
	q.n = 0
}

// Resource models a unit that can serve one request at a time (a bus, a
// network input port, a directory controller). Acquire serializes requests:
// a request arriving at time t starts at max(t, freeAt) and holds the
// resource for occ cycles. The zero value is a free resource.
type Resource struct {
	freeAt Time
	// Busy accumulates total occupied cycles, for utilization reporting.
	Busy Time
}

// Acquire occupies the resource for occ cycles starting no earlier than t.
// It returns the time at which the occupancy ends (i.e. when the request
// has passed through the resource).
func (r *Resource) Acquire(t Time, occ Time) Time {
	start := t
	if r.freeAt > start {
		start = r.freeAt
	}
	r.freeAt = start + occ
	r.Busy += occ
	return r.freeAt
}

// FreeAt returns the next cycle at which the resource is idle.
func (r *Resource) FreeAt() Time { return r.freeAt }

// Reset returns the resource to the initial idle state.
func (r *Resource) Reset() { r.freeAt = 0; r.Busy = 0 }

// Banked models a set of interleaved resources (e.g. memory banks); a
// request selects its bank by address and queues only behind requests to
// the same bank.
type Banked struct {
	banks []Resource
	mask  uint64 // len(banks)-1 when a power of two, else 0 (modulo path)
	pow2  bool

	// inline backs banks for small bank counts, so a Banked embedded in a
	// larger hot struct keeps its banks on the same cache lines instead of
	// behind a separate heap allocation.
	inline [8]Resource
}

// Init configures b in place with n banks (n >= 1). It must be called on
// the Banked's final resting address: for small n the bank storage aliases
// the struct itself, so the value must not be copied afterwards.
func (b *Banked) Init(n int) {
	if n < 1 {
		n = 1
	}
	if n <= len(b.inline) {
		b.inline = [8]Resource{}
		b.banks = b.inline[:n]
	} else {
		b.banks = make([]Resource, n)
	}
	b.pow2 = n&(n-1) == 0
	b.mask = 0
	if b.pow2 {
		b.mask = uint64(n - 1)
	}
}

// NewBanked returns a Banked resource with n banks (n >= 1).
func NewBanked(n int) *Banked {
	b := new(Banked)
	b.Init(n)
	return b
}

// Acquire occupies the bank selected by key for occ cycles starting no
// earlier than t and returns the completion time. Bank selection is key mod
// banks; the common power-of-two bank counts take the mask path to keep the
// integer division off the per-reference hot path.
func (b *Banked) Acquire(key uint64, t Time, occ Time) Time {
	if b.pow2 {
		return b.banks[key&b.mask].Acquire(t, occ)
	}
	return b.banks[key%uint64(len(b.banks))].Acquire(t, occ)
}

// Busy returns the total occupied cycles summed over banks.
func (b *Banked) Busy() Time {
	var total Time
	for i := range b.banks {
		total += b.banks[i].Busy
	}
	return total
}
