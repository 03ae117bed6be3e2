// The machine arena: a sync.Pool-backed recycler for per-run machine state.
//
// A figure grid runs one app's machines back to back across every pressure,
// architecture, tier config and page policy; before the arena, every cell
// rebuilt the dense page tables, directory chunks, L1 arrays and event queue
// from scratch — construction allocations that rival the simulation itself
// at benchmark scale. Released machines park here keyed by the sizes their
// storage is allocated with, and New reuses one by zeroing its tables in
// place (a memclr over retained chunks) instead of reallocating.
//
// Recycling is exact: every component exposes a Reset that restores its
// just-built state, including the event queue's deterministic tie-break
// sequence, and New applies every run parameter (page count, thresholds,
// tier specs, page policy) to fresh and recycled machines alike, so a
// recycled machine is bit-identical in behaviour to a fresh one — the
// golden-determinism matrix (which runs every config twice, the second
// time on recycled state) holds it to that.
package machine

import (
	"sync"

	"ascoma/internal/cache"
	"ascoma/internal/directory"
	"ascoma/internal/vm"
	"ascoma/internal/workload"
)

// shape is the allocation identity of a machine's recyclable state: the
// sizes newShaped allocates with. Two machines with the same shape differ
// only in run parameters, which New applies on every build. homePages (the
// workload's home pages per node) stays in the key because it bounds the
// dense page-index range a run touches, and a Reset clears every chunk a
// table has kept: a machine shared across workload scales would clear a
// paper-scale directory before every small run.
type shape struct {
	nodes      int
	l1Bytes    int
	racEntries int
	memBanks   int
	homePages  int
}

// arena maps shape -> *sync.Pool of released *Machine. sync.Pool gives
// per-P caching for concurrent grid runners and lets the GC drop pooled
// machines under memory pressure.
var arena sync.Map

func arenaGet(sh shape) *Machine {
	if p, ok := arena.Load(sh); ok {
		if m, _ := p.(*sync.Pool).Get().(*Machine); m != nil {
			return m
		}
	}
	return nil
}

func arenaPut(m *Machine) {
	p, _ := arena.LoadOrStore(m.shape, &sync.Pool{})
	p.(*sync.Pool).Put(m)
}

// newShaped allocates the storage of a machine: nodes with their caches,
// VM and contention resources, plus the directory. It configures nothing:
// New applies the run parameters to fresh and recycled machines alike.
func newShaped(sh shape) *Machine {
	m := &Machine{shape: sh}
	m.nodes = make([]*node, sh.nodes)
	for i := range m.nodes {
		m.nodes[i] = &node{
			id:  i,
			l1:  *cache.NewL1(sh.l1Bytes),
			rac: cache.NewRAC(sh.racEntries),
			vmm: &vm.VM{Node: i},
		}
	}
	// The directory's callbacks are bound to m itself, so they survive
	// recycling: the whole machine is pooled as a unit.
	m.dir = directory.New(sh.nodes, 0, 0, m.onInvalidate, m.onWriteback)
	return m
}

// recycle restores a pooled machine's run state to what newShaped leaves
// it in. The run parameters are New's to apply.
func (m *Machine) recycle() {
	m.released = false
	for _, nd := range m.nodes {
		nd.l1.Reset()
		nd.rac.Reset()
		nd.tlb.reset()
		nd.bus.Reset()
		nd.dir.Reset()
		nd.blocked = 0
		nd.arriveTime = 0
		nd.invGen = 0
		nd.prevRowConf = 0
	}
	m.q.Reset()
	m.locks.Reset()
	m.lockOther = nil
	m.waiters = m.waiters[:0]
	m.active = 0
	m.barriers = 0
	m.aborted = nil
	m.invHome, m.invDelay = 0, 0
	m.checker = nil
	m.nextSample = 0
	m.nextEpoch = 0
}

// Release returns the machine's recyclable state (caches, page tables,
// directory chunks, event queue, stream chunk buffers) to the process-wide
// arena for reuse by a later run of the same shape. The machine must not be
// used after Release. Statistics and samples returned by Run are allocated
// per run and remain valid — Release drops the machine's references to them
// so pooling does not pin them.
func (m *Machine) Release() {
	if m.released {
		return
	}
	m.released = true
	for _, nd := range m.nodes {
		workload.Recycle(nd.stream)
		nd.stream = nil
		nd.chunks = nil
		nd.pend, nd.pendPos = nil, 0
		nd.pol = nil
		nd.vmm.SetRecorder(nil)
	}
	m.gen = nil
	m.net = nil
	m.st = nil
	m.samples = nil
	m.checker = nil
	// Drop the run's observability instruments so pooling does not pin a
	// caller's Recording.
	m.rec, m.ep = nil, nil
	m.dir.SetRecorder(nil)
	arenaPut(m)
}
