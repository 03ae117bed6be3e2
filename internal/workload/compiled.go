package workload

// The chunked stream compiler. The interpreted progStream re-enters a
// per-instruction state machine for every single reference, which PR 1's
// profiles show is the dominant remaining per-reference cost once the
// machine's own bookkeeping is dense. Compilation splits that cost two ways:
//
//   - per Program: the instruction list is decoded once into a compiledProg
//     whose derived constants (per-pass ref counts, scatter slot counts,
//     normalized run lengths) are precomputed, and the result is memoized on
//     the Program, so every stream over it — and, through the workload
//     memoization in New, every grid cell of a figure — shares one immutable
//     compiled form;
//   - per reference: a Compiled stream expands the program chunk-wise into a
//     fixed [ChunkSize]Ref buffer with one tight loop per instruction
//     segment, so Next is a bounds check and an index increment, and callers
//     that can consume whole runs of references (the machine's L1-hit
//     fast-forward) borrow the decoded chunk directly via Pending/Skip;
//   - per walk pass: a caller that can account for whole passes in closed
//     form reads the next walk's geometry and cursor (NextWalk) and moves
//     the cursor past references it never decodes (AdvanceWalk).
//
// The compiled expansion is bit-identical to the interpreter — the golden
// harness and TestCompiledMatchesInterpreted hold it to that.

import (
	"sync"

	"ascoma/internal/addr"
)

// ChunkSize is the number of references a Compiled stream decodes per
// refill. 256 refs (4 KB of Ref) amortize the per-segment dispatch to noise
// while keeping the buffer comfortably inside L1d alongside the caches the
// machine touches per quantum.
const ChunkSize = 256

// Chunked is implemented by streams that expose their decoded lookahead.
// The machine's hit fast-forward consumes references straight out of the
// chunk without going through Next.
type Chunked interface {
	Stream
	// Pending returns the undelivered references of the current chunk,
	// refilling it if exhausted. An empty slice means end of stream.
	Pending() []Ref
	// Skip consumes the first n references of Pending.
	Skip(n int)
	// NextWalk reports the walk the stream decodes next, with its cursor,
	// when the current chunk is fully consumed and the next instruction is
	// a walk; ok is false otherwise (chunk not exhausted, a scatter or sync
	// instruction next, or end of stream).
	NextWalk() (w Walk, ok bool)
	// AdvanceWalk consumes the next k references of the walk NextWalk
	// reports without decoding them. k must be at least 1 and at most
	// Walk.Remaining.
	AdvanceWalk(k int64)
}

// Walk is the geometry and decode cursor of a strided walk: Passes sweeps
// of Count references at Base, Base+Stride, ..., each issued after Think
// instruction cycles. The next reference is position I of pass Pass.
type Walk struct {
	Base   addr.GVA
	Stride int64
	Count  int64 // refs per pass
	Passes int64
	Pass   int64 // current pass, in [0, Passes)
	I      int64 // next position within the pass, in [0, Count)
	WEvery int64 // every WEvery'th position is a write; 0 for none
	Op     Op
	Think  int32
}

// Write reports whether position j of every pass is a write: the walk's
// own op is Write, or j is a WEvery slot (refillWalk's pattern).
func (w *Walk) Write(j int64) bool {
	return w.Op == Write || (w.WEvery > 0 && j%w.WEvery == w.WEvery-1)
}

// Remaining returns the number of references the walk issues from its
// cursor on.
func (w *Walk) Remaining() int64 { return (w.Passes-w.Pass)*w.Count - w.I }

// cinstr is one decoded program step with its derived constants resolved.
type cinstr struct {
	kind   instrKind
	op     Op
	think  int32
	base   addr.GVA
	stride int64
	count  int64 // refs per pass
	passes int64
	wEvery int64
	runLen int64  // scatter: normalized to >= 1
	slots  uint64 // scatter: random start slots
	seed   uint64
}

// compiledProg is the immutable compiled form of a Program, shared by every
// stream over it.
type compiledProg struct {
	instrs []cinstr
}

func compile(p *Program) *compiledProg {
	cp := &compiledProg{instrs: make([]cinstr, len(p.instrs))}
	for i := range p.instrs {
		in := &p.instrs[i]
		ci := &cp.instrs[i]
		*ci = cinstr{
			kind: in.kind, op: in.op, think: in.think,
			base: in.base, stride: in.stride,
			count: in.count, passes: in.passes,
			wEvery: in.wEvery, seed: in.seed,
		}
		if in.kind == iScatter {
			ci.runLen = in.runLen
			if ci.runLen < 1 {
				ci.runLen = 1
			}
			ci.slots = uint64(in.bytes/in.stride) - uint64(ci.runLen) + 1
		}
	}
	return cp
}

// compiled returns the program's compiled form, building it on first use.
// The Program must not be modified after its first Stream.
func (p *Program) compiled() *compiledProg {
	p.once.Do(func() { p.comp = compile(p) })
	return p.comp
}

// Compiled is a chunk-buffered stream over a compiled program: refill
// decodes up to ChunkSize references in segment-sized tight loops, and Next
// only indexes the buffer.
type Compiled struct {
	prog *compiledProg

	// Decode cursor (mirrors progStream's state machine).
	pc     int
	pass   int64
	i      int64
	runOff int64
	rnd    rng

	pos, n int
	buf    [ChunkSize]Ref
}

var compiledPool = sync.Pool{New: func() any { return new(Compiled) }}

// newCompiledStream checks a stream out of the pool; the 4 KB chunk buffer
// is reused as-is (pos == n forces a refill before the first read).
func newCompiledStream(cp *compiledProg) *Compiled {
	s := compiledPool.Get().(*Compiled)
	s.prog = cp
	s.pc, s.pass, s.i, s.runOff = 0, 0, 0, 0
	s.rnd = rng{}
	s.pos, s.n = 0, 0
	return s
}

// Recycle returns a stream obtained from Program.Stream to the shared chunk
// pool. Only *Compiled streams are pooled; anything else is ignored. The
// stream must not be used after Recycle.
func Recycle(s Stream) {
	if c, ok := s.(*Compiled); ok {
		c.prog = nil
		compiledPool.Put(c)
	}
}

// Next returns the next reference; ok is false at end of stream.
//
//ascoma:hotpath
func (s *Compiled) Next() (Ref, bool) {
	if s.pos == s.n {
		s.refill()
		if s.n == 0 {
			return Ref{}, false
		}
	}
	r := s.buf[s.pos]
	s.pos++
	return r, true
}

// Pending returns the undelivered references of the current chunk.
func (s *Compiled) Pending() []Ref {
	if s.pos == s.n {
		s.refill()
	}
	return s.buf[s.pos:s.n]
}

// Skip consumes the first n references of Pending.
func (s *Compiled) Skip(n int) { s.pos += n }

// NextWalk reports the walk the stream decodes next (see Chunked). The
// cursor is always normalized — refillWalk and AdvanceWalk leave I in
// [0, Count) and Pass in [0, Passes) — so a reported walk has at least one
// reference left.
//
//ascoma:hotpath
func (s *Compiled) NextWalk() (Walk, bool) {
	if s.pos != s.n || s.pc >= len(s.prog.instrs) {
		return Walk{}, false
	}
	in := &s.prog.instrs[s.pc]
	if in.kind != iWalk {
		return Walk{}, false
	}
	return Walk{
		Base: in.base, Stride: in.stride, Count: in.count, Passes: in.passes,
		Pass: s.pass, I: s.i, WEvery: in.wEvery, Op: in.op, Think: in.think,
	}, true
}

// AdvanceWalk moves the walk cursor k references forward (see Chunked),
// leaving it exactly where refillWalk would after decoding them.
//
//ascoma:hotpath
func (s *Compiled) AdvanceWalk(k int64) {
	in := &s.prog.instrs[s.pc]
	i := s.i + k
	s.pass += i / in.count
	s.i = i % in.count
	if s.pass >= in.passes {
		s.pass = 0
		s.pc++
	}
}

// refill decodes the next chunk of references into the buffer. The decode
// loops write into the stream's fixed chunk array; nothing here may
// allocate (ascoma-vet enforces it).
//
//ascoma:hotpath
func (s *Compiled) refill() {
	s.pos, s.n = 0, 0
	for s.n < ChunkSize && s.pc < len(s.prog.instrs) {
		in := &s.prog.instrs[s.pc]
		switch in.kind {
		case iBarrier:
			s.buf[s.n] = Ref{Addr: in.base, Op: Barrier}
			s.n++
			s.pc++
		case iLock:
			s.buf[s.n] = Ref{Addr: in.base, Op: Lock}
			s.n++
			s.pc++
		case iUnlock:
			s.buf[s.n] = Ref{Addr: in.base, Op: Unlock}
			s.n++
			s.pc++
		case iWalk:
			s.refillWalk(in)
		case iScatter:
			s.refillScatter(in)
		}
	}
}

// refillWalk expands as much of the current walk as fits in the chunk.
// Walk offsets never need the interpreter's clamp: count = ceil(bytes /
// stride), so (count-1)*stride < bytes always.
//
//ascoma:hotpath
func (s *Compiled) refillWalk(in *cinstr) {
	for {
		left := in.count - s.i
		if space := int64(ChunkSize - s.n); left > space {
			left = space
		}
		i, off, n := s.i, s.i*in.stride, s.n
		if in.wEvery > 0 {
			// Carry the write-phase counter across the loop instead of
			// dividing per reference: w == wEvery-1 marks the write slot.
			w := i % in.wEvery
			for end := i + left; i < end; i++ {
				op := in.op
				if w == in.wEvery-1 {
					op = Write
					w = 0
				} else {
					w++
				}
				s.buf[n] = Ref{Addr: in.base + addr.GVA(off), Op: op, Think: in.think}
				n++
				off += in.stride
			}
		} else {
			r := Ref{Op: in.op, Think: in.think}
			for end := i + left; i < end; i++ {
				r.Addr = in.base + addr.GVA(off)
				s.buf[n] = r
				n++
				off += in.stride
			}
		}
		s.i, s.n = i, n
		if s.i < in.count {
			return // chunk full mid-pass
		}
		s.i = 0
		s.pass++
		if s.pass >= in.passes {
			s.pass = 0
			s.pc++
			return
		}
		if s.n == ChunkSize {
			return
		}
	}
}

// refillScatter expands as much of the current scatter as fits in the chunk.
//
//ascoma:hotpath
func (s *Compiled) refillScatter(in *cinstr) {
	if s.i == 0 {
		s.rnd = newRNG(in.seed)
		s.runOff = 0
	}
	// Phase counters carried across the loop in place of per-reference
	// division: rl tracks the position within the current run, w the
	// position within the write period.
	rl := s.i % in.runLen
	var w int64
	if in.wEvery > 0 {
		w = s.i % in.wEvery
	}
	for s.n < ChunkSize && s.i < in.count {
		if rl == 0 {
			s.runOff = int64(s.rnd.intn(in.slots)) * in.stride
		} else {
			s.runOff += in.stride
		}
		if rl++; rl == in.runLen {
			rl = 0
		}
		op := in.op
		if in.wEvery > 0 {
			if w == in.wEvery-1 {
				op = Write
				w = 0
			} else {
				w++
			}
		}
		s.buf[s.n] = Ref{Addr: in.base + addr.GVA(s.runOff), Op: op, Think: in.think}
		s.n++
		s.i++
	}
	if s.i >= in.count {
		s.i = 0
		s.pc++
	}
}
