// Package machine assembles the full simulated multiprocessor: per-node
// processors with L1 caches, RACs, buses, memory banks and VM kernels, a
// global interconnect and coherence directory, and the architecture policy
// that decides page placement and remapping. Machine.Run drives every
// node's reference stream to completion and returns the statistics the
// paper's figures are built from.
package machine

import (
	"context"
	"fmt"

	"ascoma/internal/addr"
	"ascoma/internal/cache"
	"ascoma/internal/core"
	"ascoma/internal/dense"
	"ascoma/internal/directory"
	"ascoma/internal/network"
	"ascoma/internal/obs"
	"ascoma/internal/params"
	"ascoma/internal/sim"
	"ascoma/internal/stats"
	"ascoma/internal/vm"
	"ascoma/internal/workload"
)

// Config selects the architecture and memory pressure for one run.
type Config struct {
	Arch     params.Arch
	Pressure int           // memory pressure percent, 1..99
	Params   params.Params // machine parameters (zero value -> params.Default())
	// Quantum is the number of cycles one node advances before the run
	// loop switches to the next node (0 -> 100). Nodes interact through
	// shared resources whose next-free times advance with the requests
	// they serve, so the quantum bounds the timestamp skew between
	// nodes: larger values run faster but overstate queueing (a node
	// processed later in wall-clock order queues behind requests up to a
	// quantum ahead of it in simulated time).
	Quantum int64
	// MaxCycles aborts runs that exceed this simulated time (0 -> no
	// limit); a safety net against mismatched barrier counts.
	MaxCycles int64
	// Ablation runs AS-COMA with one of its improvements disabled (zero
	// -> the full policy). Used by the ablation benchmarks; a run of an
	// ablated AS-COMA certifies no other architecture (see SameArchs).
	Ablation core.ASCOMAVariant
	// Deprecated: runs are sequential; ignored.
	Cores int
	// CheckCoherence enables the version-shadowing coherence checker:
	// every locally satisfied access is validated against the block's
	// current write version, and Run fails on any stale hit. Costs about
	// 2x simulation time; intended for tests.
	CheckCoherence bool
	// SampleInterval, when > 0, records a Sample of node 0's adaptive
	// state every SampleInterval cycles — the data behind adaptation
	// timelines (threshold, free pool, relocation counts over time).
	SampleInterval int64
	// Obs attaches a flight recorder and epoch probes to the run (see
	// internal/obs). Nil disables observability: every emit site guards on
	// a nil recorder, so a disabled run pays one branch on the slow paths
	// and nothing on the per-reference path. Events are stamped with
	// simulated cycles only, so a recording never perturbs the simulation.
	Obs *obs.Recording
}

// Sample is one point of the adaptation timeline recorded for node 0.
type Sample struct {
	Time       int64 // cycle of the sample
	Threshold  int   // current relocation threshold
	FreePages  int   // free page pool size
	SComaPages int   // pages mapped in S-COMA mode
	Upgrades   int64 // cumulative relocations
	Downgrades int64 // cumulative evictions
	Thrash     int64 // cumulative thrash detections
	KOverhead  int64 // cumulative kernel-overhead cycles
}

// node is one processor/memory node. Field order is hot-first: runNode
// touches the scheduling flags, the chunk window, and the stats pointer on
// every event, so they share the node's leading cache lines; the ~1 KB TLB
// array sits last.
type node struct {
	// blocked is the node's scheduling state as a bitmask (see ndDone etc.):
	// runNode's entry check — taken once per event — tests one byte instead
	// of three booleans.
	blocked uint8

	// invGen counts mutations of this node's L1 that can change a hit
	// outcome: cross-node ones (invalidation and downgrade callbacks, the
	// home bus snoop, migration flushes) and the node's own fills and page
	// flushes (l1Fill, relocate, evict). Hits change no line's state. The
	// closed-form walk skip keys its verification on it (see walkMemo).
	invGen uint32

	nextDaemon int64
	id         int

	// cruise serves the node's next events from its last walk skip when
	// that skip stopped at the quantum deadline (see walkskip.go); the
	// run loop reads it once per event.
	cruise cruise

	// Chunk window: pend borrows the stream's decoded chunk and pendPos is
	// the consumption cursor — refs before it have been consumed by the
	// node but not yet reported to the stream. The cursor is reported
	// lazily, with one Skip per window instead of one interface call per
	// reference (see refillWindow), and consuming a reference writes one
	// integer rather than re-slicing.
	pend    []workload.Ref
	pendPos int

	// chunks is the node's reference stream, as every node reads it: the
	// generator's stream through workload.Chunked.
	chunks *workload.Compiled
	// st accumulates this node's statistics in place — embedded so the
	// per-reference counter updates land on the node's own cache lines;
	// finalize copies it into the returned stats.Machine.
	st stats.Node
	l1 cache.L1 // embedded: looked up on every reference, no pointer chase

	arriveTime     int64 // barrier/lock arrival time
	lockNext       int32 // next node (id + 1, 0: none) parked on the mutex this node waits for
	daemonInterval int64
	prevThresh     int // last relocation threshold seen by the flight recorder

	rac *cache.RAC
	vmm *vm.VM
	bus sim.Resource // split-transaction memory bus: BusCycles per transaction
	mem sim.Banked   // embedded: one acquire per miss, no pointer chase
	dir sim.Resource // directory-controller occupancy at this node

	// walk memoizes the last closed-form walk verification (see
	// walkskip.go); read once per exhausted chunk window.
	walk walkMemo

	tlb tlb // software translation cache over vmm's page table

	// pols is the node's policy with its shadows (see core.Set): every
	// decision goes through it. Kept as a value so a run allocates none.
	pols core.Set
}

// Scheduling states for node.blocked: a done node never runs again; a
// waiting or lock-blocked node is resumed by clearing its bit.
const (
	ndDone     = 1 << iota // stream drained or run aborted
	ndWaiting              // parked at a barrier
	ndLockWait             // parked on a held mutex
)

// refillWindow reports the consumed prefix to the stream and borrows the
// next pending window. An empty result means end of stream.
func (nd *node) refillWindow() []workload.Ref {
	nd.chunks.Skip(nd.pendPos)
	nd.pendPos = 0
	nd.pend = nd.chunks.Pending()
	return nd.pend
}

// Machine is one configured simulation.
type Machine struct {
	cfg   Config
	p     *params.Params
	gen   workload.Generator
	nodes []*node
	net   *network.Net
	dir   *directory.Directory
	q     sim.Queue
	st    *stats.Machine

	// Hoisted copies of the per-event Config reads, kept on the hot cache
	// lines next to the queue instead of deep inside cfg.
	quantum    int64
	maxCycles  int64
	sampleIntv int64
	epochIntv  int64

	// Observability instruments (nil when Config.Obs is unset). rec is
	// shared with the per-node VMs and the directory, which emit through
	// the same ring; the machine stamps rec.Clock at every kernel-path
	// entry so their events carry the current simulated cycle.
	rec *obs.Recorder
	ep  *obs.Epochs

	shape    shape // arena pool key (see arena.go)
	released bool

	active   int   // nodes not yet done
	waiters  []int // nodes parked at the current barrier
	barriers int64 // completed barrier episodes
	aborted  error // first fatal protocol/program error

	// Lock state: workload mutex ids are small integers, so the common
	// case is a dense, chunk-allocated table (stable pointers, no hashing,
	// no per-lock allocation); arbitrary ids from custom workloads fall
	// back to a map. A zero lockState is a valid unheld lock.
	locks     dense.Table[lockState]
	lockOther map[addr.GVA]*lockState

	// Invalidation-latency context for the current directory operation.
	invHome  int
	invDelay int64

	checker *coherenceChecker

	samples    []Sample
	nextSample int64
	nextEpoch  int64

	// cruised counts the quanta served from a cruise record instead of
	// runNode; tests read it to see that cruising engaged.
	cruised int64
}

// New builds a machine for the given workload. The workload's node count
// overrides Params.Nodes.
func New(cfg Config, gen workload.Generator) (*Machine, error) {
	if cfg.Params.Nodes == 0 {
		cfg.Params = params.Default()
	}
	cfg.Params.Nodes = gen.Nodes()
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.Arch < params.CCNUMA || cfg.Arch > params.MIGNUMA {
		return nil, fmt.Errorf("machine: unknown architecture %d", int(cfg.Arch))
	}
	if cfg.Pressure < 1 || cfg.Pressure > 99 {
		return nil, fmt.Errorf("machine: memory pressure %d%% out of range [1,99]", cfg.Pressure)
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = 100
	}

	// Per-node memory sizing: home + private pages occupy Pressure% of
	// the node's physical memory.
	homePages := gen.HomePagesPerNode()
	resident := homePages + gen.PrivatePagesPerNode()
	totalPages := nodePages(resident, cfg.Pressure)

	// Check the arena for a released machine of the same allocation
	// shape; recycling one resets its dense tables in place instead of
	// reallocating them (see arena.go).
	sh := shape{
		nodes:      cfg.Params.Nodes,
		l1Bytes:    cfg.Params.L1Bytes,
		racEntries: cfg.Params.RACEntries,
		memBanks:   cfg.Params.MemBanks,
	}
	m := arenaGet(sh)
	if m == nil {
		m = newShaped(sh)
	} else {
		m.recycle()
	}
	m.cfg = cfg
	m.gen = gen
	m.quantum = cfg.Quantum
	m.maxCycles = cfg.MaxCycles
	m.sampleIntv = cfg.SampleInterval
	m.p = &m.cfg.Params
	p := m.p

	n := p.Nodes

	// Attach (or detach) the observability instruments. Unconditional:
	// recycled machines must not carry a previous run's recorder.
	m.rec, m.ep, m.epochIntv, m.nextEpoch = nil, nil, 0, 0
	if o := cfg.Obs; o != nil {
		m.rec = o.Events
		if o.Epochs != nil && o.Epochs.Interval > 0 {
			m.ep = o.Epochs
			m.ep.SetNodes(n)
			m.epochIntv = m.ep.Interval
		}
	}
	m.dir.Reset(homePages, p.RefetchThreshold)
	m.dir.SetRecorder(m.rec)
	m.net.Configure(p)
	m.st = stats.NewMachine(n)
	m.st.Arch = cfg.Arch.String()
	m.st.Workload = gen.Name()
	m.st.Pressure = cfg.Pressure

	for i := 0; i < n; i++ {
		nd := m.nodes[i]
		nd.pols.Reset(cfg.Arch, p, cfg.Ablation)
		nd.st = stats.Node{}
		nd.nextDaemon = p.DaemonInterval
		nd.daemonInterval = p.DaemonInterval
		nd.prevThresh = nd.pols.Primary().Threshold()
		// The run parameters, applied here for fresh and recycled
		// machines alike. Init must run on the Banked's final address:
		// small bank counts store their banks inside the struct itself.
		nd.mem.Init(p.MemBanks)
		nd.vmm.Reset(totalPages, p.FreeMinPct, p.FreeTargetPct)
		nd.vmm.SetRecorder(m.rec)
		if err := nd.vmm.ReserveHome(resident); err != nil {
			return nil, err
		}
	}

	// Pre-place the shared home pages and install the home nodes'
	// mappings (the paper's home allocation happens before the timed
	// parallel phase).
	gen.Place(func(pg addr.Page, home int) {
		m.dir.ForceHome(pg, home)
		m.nodes[home].vmm.MapLocal(pg, vm.ModeHome)
	})

	for i := 0; i < n; i++ {
		nd := m.nodes[i]
		nd.chunks = workload.Chunked(gen.Stream(i))
		nd.pend, nd.pendPos = nil, 0
		nd.invGen = 0
		nd.walk = walkMemo{}
		nd.cruise = cruise{}
	}
	m.cruised = 0
	m.active = n
	if cfg.CheckCoherence {
		m.checker = newCoherenceChecker(n)
	}
	return m, nil
}

// lockState is one mutex: the paper's SYNC category covers lock and
// barrier operations; locks are arbitrated at a home node (hashed from the
// lock id) with FIFO handoff.
type lockState struct {
	held  bool
	owner int
	// head and tail are the FIFO of nodes parked on the mutex, as node
	// id + 1 (0: none), linked through node.lockNext. A parked node waits
	// on one mutex only, so one link per node threads every queue and a
	// queue has no storage of its own to allocate or reset.
	head, tail int32
}

// lockCost returns the latency of one atomic lock operation by nd on the
// mutex with the given id: a local memory atomic when the lock's home is
// this node, a remote round trip otherwise.
func (m *Machine) lockCost(nd *node, id addr.GVA) int64 {
	home := int(uint64(id) % uint64(len(m.nodes)))
	if home == nd.id {
		return m.p.BusCycles + m.p.LocalMemCycles
	}
	return m.p.RemoteMemCycles()
}

// maxDenseLock bounds the mutex ids kept in the dense lock table; ids at or
// above it (only possible from custom workloads using raw addresses as lock
// ids) fall back to the map.
const maxDenseLock = 1 << 20

// lockFor returns the state of mutex id, materializing it when create is
// set; without create it returns nil for a never-touched mutex.
func (m *Machine) lockFor(id addr.GVA, create bool) *lockState {
	if id < maxDenseLock {
		if create {
			return m.locks.GetOrCreate(int(id))
		}
		return m.locks.Get(int(id))
	}
	l := m.lockOther[id]
	if l == nil && create {
		if m.lockOther == nil {
			m.lockOther = make(map[addr.GVA]*lockState)
		}
		l = &lockState{}
		m.lockOther[id] = l
	}
	return l
}

// acquireLock attempts to take the mutex; it returns the cycles consumed
// and whether the node must park.
func (m *Machine) acquireLock(nd *node, id addr.GVA, now int64) (cost int64, blocked bool) {
	l := m.lockFor(id, true)
	cost = m.lockCost(nd, id)
	if !l.held {
		l.held = true
		l.owner = nd.id
		return cost, false
	}
	nd.lockNext = 0
	if l.tail == 0 {
		l.head = int32(nd.id + 1)
	} else {
		m.nodes[l.tail-1].lockNext = int32(nd.id + 1)
	}
	l.tail = int32(nd.id + 1)
	return cost, true
}

// releaseLock frees the mutex and hands it to the first waiter, waking it.
func (m *Machine) releaseLock(nd *node, id addr.GVA, now int64) (int64, error) {
	l := m.lockFor(id, false)
	if l == nil || !l.held || l.owner != nd.id {
		return 0, fmt.Errorf("machine: node %d unlocked mutex %#x it does not hold", nd.id, uint64(id))
	}
	cost := m.lockCost(nd, id)
	if l.head == 0 {
		l.held = false
		return cost, nil
	}
	next := int(l.head - 1)
	w := m.nodes[next]
	if l.head = w.lockNext; l.head == 0 {
		l.tail = 0
	}
	l.owner = next
	// The handoff reaches the waiter after the release plus a transfer.
	resume := now + cost + m.net.Latency(nd.id, next) + m.p.NetPortOccupancy
	w.st.Time[stats.Sync] += resume - w.arriveTime
	w.blocked &^= ndLockWait
	m.q.Push(sim.Event{Time: resume, Node: int32(next)})
	return cost, nil
}

// onInvalidate is the directory's invalidation callback: clear every cached
// copy of the block at the target node and record the worst-case
// invalidation round-trip for the in-flight directory operation.
func (m *Machine) onInvalidate(nodeID int, b addr.Block) {
	nd := m.nodes[nodeID]
	// Bump the generation only when the L1 actually lost lines: the copyset
	// tracks RAC and S-COMA caching too, so the tiny L1 has usually evicted
	// the block long before an invalidation arrives, and an untouched L1
	// leaves the node's walk memo valid.
	if nd.l1.InvalidateBlock(b) > 0 {
		nd.invGen++
	}
	nd.rac.InvalidateBlock(b)
	if pte := nd.vmm.PageOfBlock(b); pte != nil && pte.Mode == vm.ModeSCOMA {
		pte.ClearBlockValid(b.Index())
	}
	nd.st.Invalidations++
	if m.checker != nil {
		m.checker.onInvalidate(nodeID, b)
	}
	rt := 2*m.net.Latency(m.invHome, nodeID) + m.p.NetPortOccupancy
	if rt > m.invDelay {
		m.invDelay = rt
	}
}

// onWriteback is the directory's dirty-owner callback: the owner supplies
// the block; on a write fetch it also loses its copy.
func (m *Machine) onWriteback(nodeID int, b addr.Block, invalidate bool) {
	if invalidate {
		m.onInvalidate(nodeID, b)
		return
	}
	nd := m.nodes[nodeID]
	// As in onInvalidate: only a real downgrade of live L1 lines can
	// change a hit outcome.
	if nd.l1.CleanBlock(b) > 0 {
		nd.invGen++
	}
	nd.rac.ClearOwned(b)
	if pte := nd.vmm.PageOfBlock(b); pte != nil && pte.Mode == vm.ModeSCOMA {
		pte.ClearBlockOwned(b.Index())
	}
}

// Run drives the simulation to completion and returns the statistics.
func (m *Machine) Run() (*stats.Machine, error) {
	return m.RunContext(context.Background())
}

// ctxPollEvents is the number of dispatched events between context polls.
// An event run by runNode advances its node by about one quantum; a cruise
// event can advance every cruising node by many quanta in simulated time
// (cruiseHorizon), but its host cost is bounded by the node count. So a
// poll every 256 events keeps cancellation latency well under a
// millisecond of wall time while the ctx.Err() load stays off the
// per-reference path.
const ctxPollEvents = 256

// RunContext drives the simulation to completion, aborting early if ctx is
// cancelled. Cancellation, MaxCycles, and runtime protocol errors all leave
// through the same abort path; a cancelled run returns an error wrapping
// ctx.Err(). The poll cadence never changes event order, so a run that
// completes is bit-identical to one driven by Run.
func (m *Machine) RunContext(ctx context.Context) (*stats.Machine, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("machine: run not started: %w", err)
	}
	for i := range m.nodes {
		m.q.Push(sim.Event{Time: 0, Node: int32(i)})
	}
	m.runLoop(ctx)
	if m.aborted != nil {
		return nil, m.aborted
	}
	if m.active > 0 {
		return nil, fmt.Errorf("machine: deadlock: %d node(s) never finished (mismatched barriers or an unreleased lock?)", m.active)
	}
	if m.checker != nil {
		if err := m.checker.Err(); err != nil {
			return nil, err
		}
	}
	m.finalize()
	return m.st, nil
}

// runLoop is the event loop: pop, poll, bound, dispatch.
func (m *Machine) runLoop(ctx context.Context) {
	poll := 0
	for m.aborted == nil {
		ev, ok := m.q.Pop()
		if !ok {
			break
		}
		if poll++; poll >= ctxPollEvents {
			poll = 0
			if err := ctx.Err(); err != nil {
				m.aborted = fmt.Errorf("machine: run aborted at cycle %d: %w", ev.Time, err)
				break
			}
		}
		if m.maxCycles > 0 && ev.Time > m.maxCycles {
			m.aborted = fmt.Errorf("machine: exceeded MaxCycles=%d (arch=%v workload=%s)", m.cfg.MaxCycles, m.cfg.Arch, m.gen.Name())
			break
		}
		m.dispatch(m.nodes[ev.Node], ev.Time)
	}
}

// dispatch runs nd's event at now: from the node's cruise record when that
// serves it (see walkskip.go), through runNode otherwise.
func (m *Machine) dispatch(nd *node, now int64) {
	if nd.cruise.w != nil && m.serveCruise(nd, now) {
		return
	}
	m.runNode(nd, now)
}

// runNode advances one node by up to one quantum of simulated time. It is
// the simulator's step loop — every simulated reference passes through it
// or through a cruise record (serveCruise) — and must stay allocation-free
// (TestHotPathAllocs pins it; see BENCH_PR1). dispatch calls it only for a
// node without a cruise record.
func (m *Machine) runNode(nd *node, now int64) {
	if nd.blocked != 0 {
		return
	}
	if m.sampleIntv > 0 && nd.id == 0 && now >= m.nextSample {
		m.takeSample(nd, now)
	}
	if m.epochIntv > 0 && nd.id == 0 && now >= m.nextEpoch {
		m.takeEpoch(now)
	}
	deadline := now + m.quantum
	for now < deadline {
		if now >= nd.nextDaemon {
			now += m.runDaemon(nd, now)
			continue
		}
		refs, pos := nd.pend, nd.pendPos
		if pos == len(refs) {
			// The window ran dry: a walk every position of which hits the
			// L1 is consumed in closed form instead of decoded (see
			// walkskip.go). The checker needs its per-hit hooks, so it
			// keeps every reference on this loop.
			if m.checker == nil {
				if t := m.skipWalk(nd, now, deadline); t != now {
					now = t
					continue
				}
			}
			if refs = nd.refillWindow(); len(refs) == 0 {
				nd.blocked = ndDone
				nd.st.FinishTime = now
				m.active--
				m.checkBarrier()
				return
			}
			pos = 0
		}
		ref := refs[pos]
		nd.pendPos = pos + 1
		if ref.Op <= workload.Write {
			// Plain read/write: the overwhelmingly common case takes one
			// compare to reach instead of falling through the sync checks.
			now = m.access(nd, ref, now)
			continue
		}
		if ref.Op == workload.Barrier {
			nd.blocked |= ndWaiting
			nd.arriveTime = now
			m.waiters = append(m.waiters, nd.id)
			m.checkBarrier()
			return
		}
		if ref.Op == workload.Lock {
			cost, blocked := m.acquireLock(nd, ref.Addr, now)
			nd.st.Time[stats.Sync] += cost
			now += cost
			if blocked {
				nd.blocked |= ndLockWait
				nd.arriveTime = now
				return
			}
			continue
		}
		if ref.Op == workload.Unlock {
			cost, err := m.releaseLock(nd, ref.Addr, now)
			if err != nil {
				m.aborted = err
				nd.blocked = ndDone
				m.active--
				return
			}
			nd.st.Time[stats.Sync] += cost
			now += cost
			continue
		}
		now = m.access(nd, ref, now)
	}
	m.q.Push(sim.Event{Time: now, Node: int32(nd.id)})
}

// checkBarrier releases the barrier once every still-running node has
// arrived.
func (m *Machine) checkBarrier() {
	if m.active == 0 || len(m.waiters) < m.active {
		return
	}
	var latest int64
	for _, w := range m.waiters {
		if t := m.nodes[w].arriveTime; t > latest {
			latest = t
		}
	}
	release := latest + m.p.BarrierCycles
	for _, w := range m.waiters {
		nd := m.nodes[w]
		nd.st.Time[stats.Sync] += release - nd.arriveTime
		nd.blocked &^= ndWaiting
		m.q.Push(sim.Event{Time: release, Node: int32(w)})
	}
	m.waiters = m.waiters[:0]
	m.barriers++
}

// access resolves one memory reference and returns the completion time.
func (m *Machine) access(nd *node, ref workload.Ref, now int64) int64 {
	p := m.p
	if ref.Think > 0 {
		nd.st.Time[stats.UInstr] += int64(ref.Think)
		now += int64(ref.Think)
	}
	write := ref.Op == workload.Write
	shared := addr.IsShared(ref.Addr)
	if shared {
		nd.st.SharedRefs++
	} else {
		nd.st.PrivateRefs++
	}
	stallCat := stats.ULcMem
	if shared {
		stallCat = stats.UShMem
	}

	line := addr.LineOf(ref.Addr)
	if nd.l1.Lookup(line, write) {
		if m.checker != nil && shared {
			m.checker.onLocalHit(nd.id, line.Block(), "L1")
			if write {
				m.checker.onWrite(nd.id, line.Block())
			}
		}
		nd.st.L1Hits++
		nd.st.Time[stallCat] += p.L1HitCycles
		return now + p.L1HitCycles
	}

	// L1 miss: translate. The TLB hit is the common case — repeated
	// touches to the same page skip the page-table walk entirely; the walk
	// (and the fault path under it) refills the entry.
	page := addr.PageOf(ref.Addr)
	pte := nd.tlb.lookup(page)
	if pte == nil {
		pte = nd.vmm.Lookup(page)
		if pte == nil {
			var kcost int64
			pte, kcost = m.pageFault(nd, page, now)
			now += kcost
		}
		nd.tlb.insert(page, pte)
	}
	pte.RefBit = true
	block := line.Block()

	var done int64
	switch pte.Mode {
	case vm.ModePrivate:
		done = m.localAccess(nd, block, now)
		nd.st.Time[stats.ULcMem] += done - now
		m.l1Fill(nd, line, write, done)
		return done

	case vm.ModeHome:
		done = m.localAccess(nd, block, now)
		if write {
			m.invHome, m.invDelay = nd.id, 0
			if inv := m.dir.HomeWrite(block); inv > 0 {
				if t := now + m.invDelay; t > done {
					done = t
				}
			}
			if m.checker != nil {
				m.checker.onWrite(nd.id, block)
			}
		} else {
			if owner, fetched := m.dir.HomeRead(block); fetched {
				// Dirty at a remote owner: retrieve before supplying.
				t := m.net.Send(nd.id, owner, done)
				t = m.memAcquire(m.nodes[owner], block, t)
				done = m.net.Send(owner, nd.id, t)
			}
			if m.checker != nil {
				m.checker.onFetch(nd.id, block)
			}
		}
		nd.st.Misses[stats.Home]++
		nd.st.Time[stats.UShMem] += done - now
		m.l1Fill(nd, line, write, done)
		return done

	case vm.ModeSCOMA:
		bi := block.Index()
		switch {
		case pte.BlockValid(bi) && (!write || pte.BlockOwned(bi)):
			// Satisfied from the local page cache.
			done = m.localAccess(nd, block, now)
			nd.st.Misses[stats.SComa]++
			pte.SComaHits++
			if m.checker != nil {
				m.checker.onLocalHit(nd.id, block, "page cache")
				if write {
					m.checker.onWrite(nd.id, block)
				}
			}
		case pte.BlockValid(bi):
			// Write to a clean cached block: ownership upgrade.
			if m.checker != nil {
				m.checker.onLocalHit(nd.id, block, "page cache (upgrade)")
			}
			done, _ = m.remoteFetch(nd, pte, block, true, true, now)
			pte.SetBlockOwned(bi)
			nd.st.Misses[stats.SComa]++
			pte.SComaHits++
			if m.checker != nil {
				m.checker.onWrite(nd.id, block)
			}
		default:
			var res directory.FetchResult
			done, res = m.remoteFetch(nd, pte, block, write, false, now)
			pte.SetBlockValid(bi)
			if write {
				pte.SetBlockOwned(bi)
			}
			if m.checker != nil {
				m.checker.onFetch(nd.id, block)
				if write {
					m.checker.onWrite(nd.id, block)
				}
			}
			m.classify(nd, res)
		}
		nd.st.Time[stats.UShMem] += done - now
		m.l1Fill(nd, line, write, done)
		return done

	case vm.ModeNUMA:
		switch {
		case nd.rac.Lookup(block, write):
			done = m.racAccess(nd, now)
			nd.st.Misses[stats.RAC]++
			if m.checker != nil {
				m.checker.onLocalHit(nd.id, block, "RAC")
				if write {
					m.checker.onWrite(nd.id, block)
				}
			}
		case write && nd.rac.Present(block):
			// Write to a clean RAC block: ownership upgrade.
			if m.checker != nil {
				m.checker.onLocalHit(nd.id, block, "RAC (upgrade)")
			}
			done, _ = m.remoteFetch(nd, pte, block, true, true, now)
			nd.rac.SetOwned(block)
			nd.st.Misses[stats.RAC]++
			if m.checker != nil {
				m.checker.onWrite(nd.id, block)
			}
		default:
			var res directory.FetchResult
			done, res = m.remoteFetch(nd, pte, block, write, false, now)
			if m.checker != nil {
				m.checker.onFetch(nd.id, block)
				if write {
					m.checker.onWrite(nd.id, block)
				}
			}
			if victim, owned := nd.rac.Insert(block, write); owned {
				m.remoteWriteback(nd, victim, done)
			}
			m.classify(nd, res)
			// The R-NUMA relocation mechanism: the home piggybacks a
			// threshold crossing; the requester takes an interrupt and
			// remaps the page to S-COMA mode.
			if res.Refetch && nd.pols.Relocates(int(res.RefetchCount)) {
				nd.st.Time[stats.UShMem] += done - now
				m.l1Fill(nd, line, write, done)
				return done + m.relocate(nd, pte, done)
			}
		}
		nd.st.Time[stats.UShMem] += done - now
		m.l1Fill(nd, line, write, done)
		return done
	}
	panic("machine: unmapped PTE mode")
}

// classify charges the miss to COLD or CONF/CAPC.
func (m *Machine) classify(nd *node, res directory.FetchResult) {
	switch res.Class {
	case directory.ColdEssential:
		nd.st.Misses[stats.Cold]++
	case directory.ColdInduced:
		nd.st.Misses[stats.Cold]++
		nd.st.InducedCold++
	default:
		nd.st.Misses[stats.ConfCapc]++
	}
}

// localAccess models an access satisfied by this node's DRAM (home data,
// page cache, or private data): bus transaction plus a memory-bank access.
func (m *Machine) localAccess(nd *node, b addr.Block, now int64) int64 {
	t := nd.bus.Acquire(now, m.p.BusCycles)
	return m.memAcquire(nd, b, t)
}

// memAcquire models a DRAM access at node nd for block b (local access,
// remote fetch supply, writeback landing, dirty-owner retrieval): the
// block's bank is busy for LocalMemCycles.
func (m *Machine) memAcquire(nd *node, b addr.Block, t int64) int64 {
	return nd.mem.Acquire(uint64(b), t, m.p.LocalMemCycles)
}

// racAccess models a hit in the DSM controller's remote access cache.
func (m *Machine) racAccess(nd *node, now int64) int64 {
	t := nd.bus.Acquire(now, m.p.BusCycles)
	extra := m.p.RACHitCycles - m.p.BusCycles
	if extra < 1 {
		extra = 1
	}
	return t + extra
}

// remoteFetch walks a block fetch through the full remote path: local bus,
// request hop, home directory and memory (or three-hop forwarding from a
// dirty owner), invalidations for writes, reply hop, local bus fill.
func (m *Machine) remoteFetch(nd *node, pte *vm.PTE, b addr.Block, write, haveData bool, now int64) (int64, directory.FetchResult) {
	p := m.p
	home := pte.Home
	t := nd.bus.Acquire(now, p.BusCycles)
	t += p.DSMProcCycles // requester's DSM engine issues the request
	t = m.net.Send(nd.id, home, t)
	t = m.nodes[home].dir.Acquire(t, p.DirCycles)

	m.invHome, m.invDelay = home, 0
	if m.rec != nil {
		m.rec.Clock = t // the directory emits refetch-hot events during Fetch
	}
	res := m.dir.Fetch(nd.id, b, write, haveData)

	// The home node's own processor cache is outside the directory's
	// copysets — the DSM engine keeps it coherent by snooping the home
	// bus: granting ownership remotely purges the home's copy, and
	// supplying a read downgrades it to read-only.
	if write {
		if m.nodes[home].l1.InvalidateBlock(b) > 0 {
			m.nodes[home].invGen++
		}
		if m.checker != nil {
			m.checker.onInvalidate(home, b)
		}
	} else if m.nodes[home].l1.CleanBlock(b) > 0 {
		m.nodes[home].invGen++
	}

	if o := res.ForwardOwner; o >= 0 {
		t = m.net.Send(home, o, t)
		t = m.memAcquire(m.nodes[o], b, t)
		t = m.net.Send(o, nd.id, t)
	} else {
		t = m.memAcquire(m.nodes[home], b, t)
		if m.invDelay > 0 {
			// Sequential consistency: the write completes only after
			// every sharer has acknowledged its invalidation.
			t += m.invDelay
		}
		t = m.net.Send(home, nd.id, t)
	}
	t += p.DSMProcCycles // requester's DSM engine stages the reply
	t = nd.bus.Acquire(t, p.BusCycles)
	return t + p.L1HitCycles, res
}

// remoteWriteback sends a displaced dirty block home (RAC or L1
// replacement). The writeback is posted: it occupies resources but does not
// stall the processor.
func (m *Machine) remoteWriteback(nd *node, b addr.Block, now int64) {
	home := m.dir.Home(b.Page())
	if home < 0 || home == nd.id {
		return
	}
	t := nd.bus.Acquire(now, m.p.BusCycles)
	t = m.net.Send(nd.id, home, t)
	m.memAcquire(m.nodes[home], b, t)
	m.dir.WritebackDirty(nd.id, b)
	nd.st.Writebacks++
}

// l1Fill inserts the line, handling the displaced victim's writeback.
func (m *Machine) l1Fill(nd *node, line addr.Line, write bool, now int64) {
	victim, wasValid, wasDirty := nd.l1.Insert(line, write)
	nd.invGen++
	if !wasValid || !wasDirty {
		return
	}
	nd.st.Writebacks++
	vb := victim.Block()
	// Victim pages were mapped when their lines were filled, so the TLB
	// almost always still holds the translation; the fallback walk refills
	// it. The TLB is a host-side memo with no simulated cost, so this changes
	// nothing observable.
	vp := victim.Page()
	pte := nd.tlb.lookup(vp)
	if pte == nil {
		pte = nd.vmm.Lookup(vp)
		if pte == nil {
			return
		}
		nd.tlb.insert(vp, pte)
	}
	switch pte.Mode {
	case vm.ModePrivate, vm.ModeHome:
		m.localAccess(nd, vb, now) // occupy local resources only
	case vm.ModeSCOMA:
		if pte.BlockValid(vb.Index()) {
			m.localAccess(nd, vb, now) // lands in the page cache
		} else {
			m.remoteWriteback(nd, vb, now)
		}
	case vm.ModeNUMA:
		if nd.rac.Present(vb) {
			nd.bus.Acquire(now, m.p.BusCycles) // absorbed by the RAC
		} else {
			m.remoteWriteback(nd, vb, now)
		}
	}
}

// pageFault installs the mapping for a faulting page, applying the
// architecture's initial-allocation policy, and returns the kernel cost.
func (m *Machine) pageFault(nd *node, page addr.Page, now int64) (*vm.PTE, int64) {
	p := m.p
	nd.st.PageFaults++
	if m.rec != nil {
		m.rec.Clock = now // pool events and pure-S-COMA evictions fire below
	}
	base := p.PageFaultCycles
	nd.st.Time[stats.KBase] += base

	gva := page.Base()
	if !addr.IsShared(gva) {
		return nd.vmm.MapLocal(page, vm.ModePrivate), base
	}

	home := m.dir.Home(page)
	if home < 0 {
		home = m.dir.AssignHome(page, nd.id)
	}
	if home == nd.id {
		return nd.vmm.MapLocal(page, vm.ModeHome), base
	}

	nd.st.RemotePagesSeen++
	var overhead int64
	var pte *vm.PTE
	if nd.pols.InitialSCOMA(nd.vmm.Free(), nd.vmm.FreeMin()) {
		pte = nd.vmm.MapSCOMA(page, home)
	}
	if pte == nil && nd.pols.PureSCOMA() {
		// Pure S-COMA must back the page locally: synchronously replace
		// another page. This is the S-COMA thrashing path.
		if victim := nd.vmm.ForceVictim(); victim != nil {
			overhead += m.evict(nd, victim)
			pte = nd.vmm.MapSCOMA(page, home)
		}
	}
	if pte == nil {
		pte = nd.vmm.MapNUMA(page, home)
	}
	if nd.vmm.Free() < nd.vmm.FreeMin() && nd.nextDaemon > now {
		// Wake the pageout daemon early to refill the pool.
		nd.nextDaemon = now + base + overhead
	}
	nd.st.Time[stats.KOverhead] += overhead
	return pte, base + overhead
}

// relocate handles a relocation interrupt: upgrade the page to S-COMA mode,
// evicting a victim if the pool is empty and policy allows. Returns the
// kernel cycles consumed. Migration policies (core.Migrator) move the page
// instead of replicating it.
func (m *Machine) relocate(nd *node, pte *vm.PTE, now int64) int64 {
	if nd.pols.Migrates() {
		return m.migrate(nd, pte, now)
	}
	p := m.p
	cost := p.InterruptCycles
	if m.rec != nil {
		m.rec.Clock = now
	}
	m.dir.ResetRefetch(pte.Page, nd.id)

	ok := nd.vmm.Upgrade(pte)
	if !ok && nd.pols.AllowHotEviction() {
		// R-NUMA and VC-NUMA replace synchronously at the interrupt:
		// second-chance for a cold victim first, then any page ("even if
		// it must evict another hot page to do so"). AS-COMA never does
		// this — upgrades draw only from the free pool the pageout
		// daemon maintains, and a dry pool is thrashing evidence.
		victim, scanned := nd.vmm.ClockScan(nd.vmm.SComaPages())
		cost += int64(scanned) * p.DaemonPageCycles
		nd.st.DaemonScanned += int64(scanned)
		if victim == nil {
			victim = nd.vmm.ForceVictim()
		}
		if victim != nil {
			cost += m.evict(nd, victim)
			ok = nd.vmm.Upgrade(pte)
		}
	}
	if ok {
		cost += m.flushLocal(nd, pte.Page)
		nd.st.Upgrades++
		if m.rec != nil {
			m.rec.Emit(obs.EvUpgrade, nd.id, uint32(pte.Page.MustIndex()), uint32(nd.vmm.Free()))
			m.rec.Emit(obs.EvTLBShootdown, nd.id, uint32(pte.Page.MustIndex()), obs.ShootdownUpgrade)
		}
	} else {
		nd.pols.NoteUpgradeBlocked()
		nd.st.RelocDenied++
		if m.rec != nil {
			m.rec.Emit(obs.EvRelocDenied, nd.id, uint32(pte.Page.MustIndex()), uint32(nd.vmm.Free()))
			m.noteThreshold(nd) // NoteUpgradeBlocked may back the threshold off
		}
	}
	nd.st.Time[stats.KOverhead] += cost
	return cost
}

// migrate moves a hot page's home to the requesting node (the MIG-NUMA
// extension): every node's cached copies are invalidated, the data is
// shipped block by block, all page tables are updated (modeled as a global
// TLB-shootdown cost), and the requester pins a free physical page to hold
// the new home copy. Returns the kernel cycles consumed by the requester.
func (m *Machine) migrate(nd *node, pte *vm.PTE, now int64) int64 {
	p := m.p
	cost := p.InterruptCycles
	page := pte.Page
	oldHome := pte.Home
	if m.rec != nil {
		m.rec.Clock = now
	}
	m.dir.ResetRefetch(page, nd.id)

	if !nd.vmm.AdoptHomePage() {
		// No free physical page to hold the migrated copy.
		nd.st.RelocDenied++
		if m.rec != nil {
			m.rec.Emit(obs.EvRelocDenied, nd.id, uint32(page.MustIndex()), uint32(nd.vmm.Free()))
		}
		nd.st.Time[stats.KOverhead] += cost
		return cost
	}

	m.invHome, m.invDelay = oldHome, 0
	m.dir.MigratePage(page, nd.id)

	// The old home's processor cache held its own home data untracked by
	// any copyset; flush it explicitly and free the physical page.
	if flushed, _ := m.nodes[oldHome].l1.FlushPage(page); flushed > 0 {
		m.nodes[oldHome].invGen++
	}
	m.nodes[oldHome].rac.FlushPage(page)
	m.nodes[oldHome].vmm.ReleaseHomePage()

	// Ship the page: one DSM block at a time, old home to new home
	// (posted transfers; the kernel cost below covers the stall).
	t := now
	for i := 0; i < params.BlocksPerPage; i++ {
		t = m.net.Send(oldHome, nd.id, t)
		m.memAcquire(nd, page.BlockAt(i), t)
	}

	// Update every node's mapping of the page — the global TLB shootdown
	// the MigrationCycles cost models.
	for _, other := range m.nodes {
		other.tlb.invalidate(page)
		opte := other.vmm.Lookup(page)
		if opte == nil {
			continue
		}
		opte.Home = nd.id
		switch {
		case other.id == nd.id:
			opte.Mode = vm.ModeHome
		case opte.Mode == vm.ModeHome:
			// The old home's frame was released above; a NUMA mapping
			// holds no frame.
			opte.Mode = vm.ModeNUMA
		}
	}

	cost += p.MigrationCycles
	nd.st.Migrations++
	nd.pols.NoteMigration()
	if m.rec != nil {
		m.rec.Emit(obs.EvMigrate, nd.id, uint32(page.MustIndex()), uint32(oldHome))
		m.rec.Emit(obs.EvTLBShootdown, nd.id, uint32(page.MustIndex()), obs.ShootdownMigrate)
	}
	nd.st.Time[stats.KOverhead] += cost
	return cost
}

// evict flushes and downgrades an S-COMA page back to CC-NUMA mode,
// returning the kernel cycles consumed. Used by the pageout daemon, by
// relocation, and by pure S-COMA's synchronous replacement.
func (m *Machine) evict(nd *node, victim *vm.PTE) int64 {
	cost := m.flushLocal(nd, victim.Page)
	hits := victim.SComaHits
	nd.vmm.Downgrade(victim)
	if nd.pols.PureSCOMA() {
		// Pure S-COMA has no CC-NUMA fallback: the evicted page loses
		// its mapping and the next access must fault and re-replace.
		nd.vmm.Unmap(victim)
	}
	nd.st.Downgrades++
	nd.pols.NoteEviction(hits, nd.vmm.SComaPages())
	if m.rec != nil {
		// Callers (relocate, runDaemon, pageFault) stamp the clock at entry.
		m.rec.Emit(obs.EvDowngrade, nd.id, uint32(victim.Page.MustIndex()), hits)
		m.rec.Emit(obs.EvTLBShootdown, nd.id, uint32(victim.Page.MustIndex()), obs.ShootdownEvict)
		m.noteThreshold(nd) // NoteEviction feeds the thrash detector
	}
	return cost
}

// flushLocal is the node-local half of remapping a page between S-COMA
// and CC-NUMA mode: it flushes the page from the node's L1 and RAC,
// writes back and drops the node's directory copies, and shoots down the
// node's cached translation. Returns the kernel cycles consumed.
//
// The L1 flush visits only the blocks the node held (FlushNode's mask),
// which is the whole-page flush: the page is remote, so the node filled
// its L1 lines only after fetching their blocks through the directory,
// and every path that drops the node from a copyset also invalidates its
// caches. A checked run also scans the whole page and reports a line the
// mask missed.
func (m *Machine) flushLocal(nd *node, page addr.Page) int64 {
	held, dirty := m.dir.FlushNode(page, nd.id)
	flushed := nd.l1.FlushBlocks(page, held)
	if m.checker != nil {
		if stray, _ := nd.l1.FlushPage(page); stray > 0 {
			m.checker.fail(fmt.Sprintf("node %d: %d L1 line(s) of %v outside its copysets at a remap flush", nd.id, stray, page))
		}
	}
	if flushed > 0 {
		nd.invGen++
	}
	nd.rac.FlushPage(page)
	nd.tlb.invalidate(page)
	p := m.p
	return p.RelocationCycles + int64(flushed)*p.L1FlushLine + int64(dirty)*p.FlushBlockWBCycles
}

// runDaemon models one pageout-daemon invocation: when the pool is below
// free_min, second-chance scan and evict cold pages until free_target is
// reached or no cold pages remain, then let the policy observe the outcome
// (AS-COMA's thrash detector lives in that observation). Returns the cycles
// consumed, charged as K-OVERHD.
func (m *Machine) runDaemon(nd *node, now int64) int64 {
	p := m.p
	vmm := nd.vmm

	// The kernel's timer only wakes the pageout daemon when the pool has
	// dropped below free_min; a healthy pool costs nothing (CC-NUMA never
	// pays daemon overhead).
	var cost int64
	if vmm.Free() < vmm.FreeMin() {
		nd.st.DaemonRuns++
		cost = p.DaemonWakeCycles
		if m.rec != nil {
			m.rec.Clock = now
			m.rec.Emit(obs.EvDaemonWake, nd.id, uint32(vmm.Free()), uint32(vmm.FreeMin()))
		}
		// One clock sweep per invocation: a page whose reference bit
		// this run clears is evicted only if it is still unreferenced
		// when the daemon next wakes — that interval is the second
		// chance.
		budget := vmm.SComaPages()
		reclaimed, totalScanned := 0, 0
		for vmm.Free() < vmm.FreeTarget() && budget > 0 {
			victim, scanned := vmm.ClockScan(budget)
			budget -= scanned
			totalScanned += scanned
			cost += int64(scanned) * p.DaemonPageCycles
			nd.st.DaemonScanned += int64(scanned)
			if victim == nil {
				break
			}
			cost += m.evict(nd, victim)
			reclaimed++
		}
		nd.st.DaemonReclaimed += int64(reclaimed)
		scale := nd.pols.NoteDaemonPass(vmm.Free(), vmm.FreeTarget(), reclaimed, totalScanned)
		nd.daemonInterval = p.DaemonInterval * scale
		if m.rec != nil {
			m.noteThreshold(nd) // the daemon pass may relax a backed-off threshold
		}
	} else if vmm.Free() >= vmm.FreeTarget() {
		scale := nd.pols.NoteDaemonPass(vmm.Free(), vmm.FreeTarget(), 0, 0)
		nd.daemonInterval = p.DaemonInterval * scale
		if m.rec != nil {
			m.rec.Clock = now
			m.noteThreshold(nd)
		}
	}
	nd.st.Time[stats.KOverhead] += cost
	nd.nextDaemon = now + cost + nd.daemonInterval
	return cost
}

// finalize computes the run-level aggregates. Together with New (which
// stamps the run identity) it must populate every field of the returned
// stats — TestStatsFieldsPopulated holds every field to a run that sets
// it, so a counter added to stats.Node or stats.Machine cannot silently
// stay zero in the goldens.
func (m *Machine) finalize() {
	var max int64
	for i, nd := range m.nodes {
		if nd.st.FinishTime > max {
			max = nd.st.FinishTime
		}
		nd.st.ThrashEvents = nd.pols.Primary().ThrashEvents()
		m.st.Nodes[i] = nd.st
	}
	m.st.ExecTime = max
	m.st.RemotePages, m.st.RelocatedPages = m.dir.Table6()
}

// Stats returns the machine's statistics (valid after Run).
func (m *Machine) Stats() *stats.Machine { return m.st }

// Directory exposes the coherence directory for tests and probes.
func (m *Machine) Directory() *directory.Directory { return m.dir }

// NodeVM exposes node i's VM state for tests and probes.
func (m *Machine) NodeVM(i int) *vm.VM { return m.nodes[i].vmm }

// takeSample records one adaptation-timeline point for node 0.
func (m *Machine) takeSample(nd *node, now int64) {
	m.samples = append(m.samples, Sample{
		Time:       now,
		Threshold:  nd.pols.Primary().Threshold(),
		FreePages:  nd.vmm.Free(),
		SComaPages: nd.vmm.SComaPages(),
		Upgrades:   nd.st.Upgrades,
		Downgrades: nd.st.Downgrades,
		Thrash:     nd.pols.Primary().ThrashEvents(),
		KOverhead:  nd.st.Time[stats.KOverhead],
	})
	m.nextSample = now + m.sampleIntv
}

// Samples returns the adaptation timeline recorded for node 0 (empty
// unless Config.SampleInterval was set).
func (m *Machine) Samples() []Sample { return m.samples }

// takeEpoch records one probe row across every node into the attached
// epoch series. Like takeSample it runs on node 0's dispatch, so each row
// is captured at a deterministic point of the event order and the series
// is bit-identical across identical runs.
func (m *Machine) takeEpoch(now int64) {
	m.ep.Begin(now)
	for _, nd := range m.nodes {
		m.ep.Set(obs.ProbeFreePages, nd.id, int64(nd.vmm.Free()))
		m.ep.Set(obs.ProbeSComaPages, nd.id, int64(nd.vmm.SComaPages()))
		m.ep.Set(obs.ProbeThreshold, nd.id, int64(nd.pols.Primary().Threshold()))
		m.ep.Set(obs.ProbeUpgrades, nd.id, nd.st.Upgrades)
		m.ep.Set(obs.ProbeDowngrades, nd.id, nd.st.Downgrades)
		m.ep.Set(obs.ProbeShMemStall, nd.id, nd.st.Time[stats.UShMem])
		m.ep.Set(obs.ProbeRemoteMisses, nd.id,
			nd.st.Misses[stats.Home]+nd.st.Misses[stats.Cold]+nd.st.Misses[stats.ConfCapc])
	}
	m.ep.Commit()
	m.nextEpoch = now + m.epochIntv
}

// noteThreshold emits a threshold-transition event when the node's
// relocation threshold moved since the last emission — AS-COMA's back-off
// and recovery become visible edges in the trace instead of being
// reconstructed from daemon-pass context. Callers guarantee m.rec != nil
// and a freshly stamped clock.
func (m *Machine) noteThreshold(nd *node) {
	if t := nd.pols.Primary().Threshold(); t != nd.prevThresh {
		m.rec.Emit(obs.EvThreshold, nd.id, uint32(t), uint32(nd.prevThresh))
		nd.prevThresh = t
	}
}

// Utilization returns per-node busy cycles of the contended resources
// (bus, memory banks, directory controller, network input port) for
// capacity analysis and tests.
func (m *Machine) Utilization(i int) (busBusy, memBusy, dirBusy, portBusy int64) {
	nd := m.nodes[i]
	return nd.bus.Busy, nd.mem.Busy(), nd.dir.Busy, m.net.PortBusy(i)
}
