// Package workload generates the memory reference streams that drive the
// simulator. The paper ran six applications (barnes, em3d, fft, lu, ocean,
// radix from SPLASH-2/Split-C) on an execution-driven PA-RISC simulator;
// that toolchain is not reproducible in Go, so each application is replaced
// by a synthetic generator that reproduces the reference behaviour the
// paper attributes to it: home-data footprint, remote working-set size and
// heat, spatial locality class, read/write mix, and phase structure (see
// DESIGN.md's substitution table).
//
// A generator builds, per node, a small "program" of reference-producing
// instructions (sequential walks, scattered accesses, barriers); streams
// expand programs lazily, so even multi-million-reference workloads use a
// few kilobytes of memory.
package workload

import (
	"fmt"
	"sort"
	"sync"

	"ascoma/internal/addr"
)

// Op is the operation a reference performs.
type Op uint8

const (
	// Read is a load.
	Read Op = iota
	// Write is a store.
	Write
	// Barrier synchronizes all nodes (the Addr field is the barrier id).
	Barrier
	// Lock acquires the mutex identified by Addr, blocking while held.
	Lock
	// Unlock releases the mutex identified by Addr.
	Unlock
)

// Ref is one memory reference (or barrier) in a node's stream.
type Ref struct {
	Addr  addr.GVA
	Op    Op
	Think int32 // user instruction cycles executed before this reference
}

// Stream produces a node's references in program order.
type Stream interface {
	// Next returns the next reference; ok is false at end of stream.
	Next() (r Ref, ok bool)
}

// Generator describes one application workload.
type Generator interface {
	// Name is the lowercase application name (e.g. "barnes").
	Name() string
	// Nodes is the node count the application runs on.
	Nodes() int
	// HomePagesPerNode is the number of shared home pages each node holds
	// (Table 5's "Home Pages" column); the machine derives per-node total
	// memory from this and the requested memory pressure.
	HomePagesPerNode() int
	// PrivatePagesPerNode is the node-private (non-shared) data footprint;
	// it counts toward memory pressure ("the amount of physical memory
	// required to hold an application's instructions and data") but is
	// never shared or remapped.
	PrivatePagesPerNode() int
	// Place pre-assigns every shared page to its home node, modeling the
	// allocation that happens before the timed parallel phase.
	Place(place func(p addr.Page, home int))
	// Stream returns node i's reference stream. Streams are independent
	// and deterministic.
	Stream(node int) Stream
}

// --- deterministic RNG -----------------------------------------------------

// rng is xorshift64*, deterministic and allocation-free. The simulator must
// not depend on math/rand global state so runs are reproducible.
type rng struct{ s uint64 }

func newRNG(seed uint64) rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

// n returns a value in [0, n).
func (r *rng) intn(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return r.next() % n
}

// --- reference programs ----------------------------------------------------

type instrKind uint8

const (
	iWalk instrKind = iota
	iScatter
	iBarrier
	iLock
	iUnlock
)

// instr is one program step.
type instr struct {
	kind   instrKind
	base   addr.GVA
	bytes  int64 // region size
	stride int64
	count  int64 // refs per pass (walk derives from bytes/stride if 0)
	passes int64
	op     Op
	wEvery int64 // if > 0, every wEvery'th reference is a write
	runLen int64 // scatter: consecutive strided refs per random start (0 = 1)
	think  int32
	seed   uint64
}

// Program is a node's reference script: a sequence of walks, scatters, and
// barriers built by the generator. A Program is append-only while being
// built and must not be modified after its first Stream call (streaming
// compiles it, and the compiled form is memoized).
type Program struct {
	instrs []instr

	once sync.Once
	comp *compiledProg
}

// Walk appends a sequential pass over [base, base+bytes) at the given
// stride, repeated passes times.
func (p *Program) Walk(base addr.GVA, bytes, stride int64, passes int64, op Op, think int32) {
	if bytes <= 0 || stride <= 0 || passes <= 0 {
		return
	}
	p.instrs = append(p.instrs, instr{
		kind: iWalk, base: base, bytes: bytes, stride: stride,
		count: (bytes + stride - 1) / stride, passes: passes, op: op, think: think,
	})
}

// WalkRW is Walk with every wEvery'th reference turned into a write
// (read-modify-write sweeps).
func (p *Program) WalkRW(base addr.GVA, bytes, stride int64, passes int64, wEvery int64, think int32) {
	if bytes <= 0 || stride <= 0 || passes <= 0 {
		return
	}
	p.instrs = append(p.instrs, instr{
		kind: iWalk, base: base, bytes: bytes, stride: stride,
		count: (bytes + stride - 1) / stride, passes: passes, op: Read, wEvery: wEvery, think: think,
	})
}

// Scatter appends n references to uniformly random stride-aligned offsets
// within [base, base+bytes).
func (p *Program) Scatter(base addr.GVA, bytes, stride, n int64, op Op, think int32, seed uint64) {
	if bytes <= 0 || stride <= 0 || n <= 0 {
		return
	}
	p.instrs = append(p.instrs, instr{
		kind: iScatter, base: base, bytes: bytes, stride: stride,
		count: n, passes: 1, op: op, think: think, seed: seed,
	})
}

// ScatterRuns appends n references issued as short sequential runs of
// runLen strided accesses starting at uniformly random offsets: spatial
// locality within a run, none across runs (the radix permutation pattern —
// dense bucket segments landing on arbitrary pages).
func (p *Program) ScatterRuns(base addr.GVA, bytes, stride, n, runLen, wEvery int64, think int32, seed uint64) {
	if bytes <= 0 || stride <= 0 || n <= 0 {
		return
	}
	if runLen < 1 {
		runLen = 1
	}
	p.instrs = append(p.instrs, instr{
		kind: iScatter, base: base, bytes: bytes, stride: stride,
		count: n, passes: 1, op: Read, wEvery: wEvery, runLen: runLen,
		think: think, seed: seed,
	})
}

// Barrier appends a global barrier with the given id.
func (p *Program) Barrier(id int) {
	p.instrs = append(p.instrs, instr{kind: iBarrier, base: addr.GVA(id)})
}

// Lock appends an acquisition of mutex id; the node blocks while another
// node holds it.
func (p *Program) Lock(id int) {
	p.instrs = append(p.instrs, instr{kind: iLock, base: addr.GVA(id)})
}

// Unlock appends a release of mutex id (which this node must hold).
func (p *Program) Unlock(id int) {
	p.instrs = append(p.instrs, instr{kind: iUnlock, base: addr.GVA(id)})
}

// Len returns the number of instructions (not references).
func (p *Program) Len() int { return len(p.instrs) }

// Refs returns the total number of memory references the program will emit
// (barriers excluded).
func (p *Program) Refs() int64 {
	var n int64
	for _, in := range p.instrs {
		if in.kind != iBarrier {
			n += in.count * in.passes
		}
	}
	return n
}

// Stream returns a lazy stream over the program: a chunk-compiled stream
// (see compiled.go) whose reference sequence is bit-identical to the
// interpreted one.
func (p *Program) Stream() Stream { return newCompiledStream(p.compiled()) }

// Interpreted returns the unoptimized per-instruction stream — the
// reference implementation the compiled chunks are validated against.
func (p *Program) Interpreted() Stream { return &progStream{prog: p} }

type progStream struct {
	prog   *Program
	pc     int
	pass   int64
	i      int64
	runOff int64
	rnd    rng
}

func (s *progStream) Next() (Ref, bool) {
	for s.pc < len(s.prog.instrs) {
		in := &s.prog.instrs[s.pc]
		switch in.kind {
		case iBarrier:
			s.pc++
			return Ref{Addr: in.base, Op: Barrier}, true
		case iLock:
			s.pc++
			return Ref{Addr: in.base, Op: Lock}, true
		case iUnlock:
			s.pc++
			return Ref{Addr: in.base, Op: Unlock}, true
		case iWalk:
			if s.i < in.count {
				off := s.i * in.stride
				if off >= in.bytes {
					off = in.bytes - in.stride
				}
				op := in.op
				if in.wEvery > 0 && s.i%in.wEvery == in.wEvery-1 {
					op = Write
				}
				s.i++
				return Ref{Addr: in.base + addr.GVA(off), Op: op, Think: in.think}, true
			}
			s.i = 0
			s.pass++
			if s.pass >= in.passes {
				s.pass = 0
				s.pc++
			}
		case iScatter:
			if s.i == 0 {
				s.rnd = newRNG(in.seed)
				s.runOff = 0
			}
			if s.i < in.count {
				runLen := in.runLen
				if runLen < 1 {
					runLen = 1
				}
				if s.i%runLen == 0 {
					slots := uint64(in.bytes/in.stride) - uint64(runLen) + 1
					s.runOff = int64(s.rnd.intn(slots)) * in.stride
				} else {
					s.runOff += in.stride
				}
				op := in.op
				if in.wEvery > 0 && s.i%in.wEvery == in.wEvery-1 {
					op = Write
				}
				s.i++
				return Ref{Addr: in.base + addr.GVA(s.runOff), Op: op, Think: in.think}, true
			}
			s.i = 0
			s.pc++
		}
	}
	return Ref{}, false
}

// --- registry ----------------------------------------------------------------

// Factory builds a Generator at the given scale divisor (1 = paper-scale;
// larger values shrink the problem for tests and benchmarks).
type Factory func(scale int) Generator

var registry = map[string]Factory{}

// Register adds a named workload factory; it panics on duplicates (factory
// registration is a programming error, not a runtime condition).
func Register(name string, f Factory) {
	if _, dup := registry[name]; dup {
		panic("workload: duplicate registration of " + name)
	}
	registry[name] = f
}

// Registered reports whether name is a registered workload.
func Registered(name string) bool {
	_, ok := registry[name]
	return ok
}

// memoKey identifies one shared workload instance.
type memoKey struct {
	name  string
	scale int
}

var (
	memoMu sync.Mutex
	memo   = map[memoKey]Generator{}
)

// New returns the named workload at the given scale. Instances are memoized
// per (name, scale): generators are immutable once built and their streams
// are independent, so every cell of a figure grid — and every concurrent
// run in a server — shares one compiled workload instead of rebuilding it.
func New(name string, scale int) (Generator, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown workload %q (have %v)", name, Names())
	}
	if scale < 1 {
		scale = 1
	}
	k := memoKey{name, scale}
	memoMu.Lock()
	defer memoMu.Unlock()
	g, ok := memo[k]
	if !ok {
		g = f(scale)
		memo[k] = g
	}
	return g, nil
}

// Names returns the registered workload names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	//ascoma:allow-nondet keys are collected and sorted before use
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// scaled divides v by scale with a floor of min.
func scaled(v, scale, min int) int {
	v /= scale
	if v < min {
		v = min
	}
	return v
}
