// The machine arena: a sync.Pool-backed recycler for per-run machine state.
//
// A figure grid runs one app's machines back to back across every pressure,
// architecture and ablation; before the arena, every cell
// rebuilt the dense page tables, directory chunks, L1 arrays and event queue
// from scratch — construction allocations that rival the simulation itself
// at benchmark scale. Released machines park here keyed by the sizes their
// storage is allocated with, and New reuses one by zeroing in place the
// table entries the last run handed out instead of reallocating.
//
// Recycling is exact: every component exposes a Reset that restores its
// just-built state, including the event queue's deterministic tie-break
// sequence, and New applies every run parameter (page count, thresholds,
// bank count) to fresh and recycled machines alike, so a
// recycled machine is bit-identical in behaviour to a fresh one — the
// golden-determinism matrix (which runs every config twice, the second
// time on recycled state) holds it to that.
package machine

import (
	"sync"

	"ascoma/internal/cache"
	"ascoma/internal/directory"
	"ascoma/internal/network"
	"ascoma/internal/vm"
	"ascoma/internal/workload"
)

// shape is the allocation identity of a machine's recyclable state: the
// sizes newShaped allocates with. Two machines with the same shape differ
// only in run parameters, which New applies on every build. The dense page
// tables grow on demand and their Reset clears only the entries the last
// run handed out, so the page-index range a run touches is no part of the
// key: a machine kept from a paper-scale run serves a small one for the
// cost of what the small one touches.
type shape struct {
	nodes      int
	l1Bytes    int
	racEntries int
	memBanks   int
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

// arenaPut parks a released machine. The pool of its shape exists after
// the shape's first release, so Load finds it without storing: only the
// first release boxes the key and allocates a pool.
func arenaPut(m *Machine) {
	p, ok := arena.Load(m.shape)
	if !ok {
		p, _ = arena.LoadOrStore(m.shape, &sync.Pool{})
	}
	p.(*sync.Pool).Put(m)
}

// newShaped allocates the storage of a machine: nodes with their caches,
// VM and contention resources, the interconnect and the directory. It
// configures nothing: New applies the run parameters to fresh and
// recycled machines alike.
func newShaped(sh shape) *Machine {
	m := &Machine{shape: sh, net: new(network.Net)}
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
// directory chunks, interconnect, event queue, stream chunk buffers) to
// the process-wide arena for reuse by a later run of the same shape. The
// machine must not be used after Release. Statistics and samples returned
// by Run are allocated per run and remain valid — Release drops the
// machine's references to them so pooling does not pin them.
func (m *Machine) Release() {
	if m.released {
		return
	}
	m.released = true
	for _, nd := range m.nodes {
		workload.Recycle(nd.chunks)
		nd.chunks = nil
		nd.pend, nd.pendPos = nil, 0
		nd.vmm.SetRecorder(nil)
	}
	m.gen = nil
	m.st = nil
	m.samples = nil
	m.checker = nil
	// Drop the run's observability instruments so pooling does not pin a
	// caller's Recording.
	m.rec, m.ep = nil, nil
	m.dir.SetRecorder(nil)
	arenaPut(m)
}
