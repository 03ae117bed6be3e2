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
//     segment, so Next is a bounds check and an index increment, and a
//     caller that reads references in bulk (the machine's step loop)
//     borrows the decoded chunk directly via Pending/Skip;
//   - per walk pass: a caller that can account for whole passes in closed
//     form reads the next walk's shared geometry and its cursor
//     (NextWalk) and moves the cursor past references it never decodes
//     (AdvanceWalk), copying nothing.
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

// Walk is the immutable geometry of a strided walk: Passes sweeps of Count
// references at Base, Base+Stride, ..., each issued after Think instruction
// cycles. compile folds back-to-back walks that differ only in Passes into
// one walk with the passes summed, and a walk that repeats the program's
// previous walk reports that walk's *Walk (compiledProg.walkAt), so a run
// of identical phases, even with sync steps between them, is one pointer
// to the verification memo.
type Walk struct {
	Base   addr.GVA
	Stride int64
	Count  int64 // refs per pass
	Passes int64
	WEvery int64 // every WEvery'th position is a write; 0 for none
	Op     Op
	Think  int32
}

// Write reports whether position j of every pass is a write: the walk's
// own op is Write, or j is a WEvery slot (refillWalk's pattern).
func (w *Walk) Write(j int64) bool {
	return w.Op == Write || (w.WEvery > 0 && j%w.WEvery == w.WEvery-1)
}

// Remaining returns the number of references the walk issues from the
// cursor at position i of pass pass on.
func (w *Walk) Remaining(pass, i int64) int64 { return (w.Passes-pass)*w.Count - i }

// cinstr is one decoded program step with its derived constants resolved.
// Walks and scatters keep their geometry in geom (a scatter leaves Passes
// unused); sync steps keep their address in geom.Base.
type cinstr struct {
	kind   instrKind
	first  int32 // walk: index of the first walk of its run of equal walks
	geom   Walk
	runLen int64  // scatter: normalized to >= 1
	slots  uint64 // scatter: random start slots
	seed   uint64
}

// compiledProg is the immutable compiled form of a Program, shared by every
// stream over it. Its instructions are the program's with back-to-back
// equal walks folded, so they need not line up with the program's indices.
type compiledProg struct {
	instrs []cinstr
}

// compile decodes p into its compiled form in two steps:
//
//   - Folding: a walk directly after a walk that equals it in every
//     geometry field but Passes, nothing between them, becomes part of
//     that walk (the passes summed). Every pass of either walk issues the
//     same Count references — position j's address, operation and think
//     depend on j and the shared geometry only, and each pass starts at
//     position 0 — so passes a then b decode exactly as a+b passes of one
//     walk. Folding changes no reference, only how many instructions the
//     references take: the 16 back-to-back tile phases of a resident
//     superphase become one walk that a verified closed-form skip rides
//     to its end.
//   - Interning: a walk equal to the previous walk (sync or scatter steps
//     between them) reports that walk's *Walk, so the machine's walk memo,
//     keyed on the pointer, survives the repeat.
func compile(p *Program) *compiledProg {
	cp := &compiledProg{instrs: make([]cinstr, 0, len(p.instrs))}
	for i := range p.instrs {
		in := &p.instrs[i]
		ci := cinstr{
			kind: in.kind,
			geom: Walk{
				Base: in.base, Stride: in.stride, Count: in.count, Passes: in.passes,
				WEvery: in.wEvery, Op: in.op, Think: in.think,
			},
			seed: in.seed,
		}
		if n := len(cp.instrs); in.kind == iWalk && n > 0 && cp.instrs[n-1].kind == iWalk &&
			foldable(&cp.instrs[n-1].geom, &ci.geom) {
			cp.instrs[n-1].geom.Passes += ci.geom.Passes
			continue
		}
		if in.kind == iScatter {
			ci.runLen = in.runLen
			if ci.runLen < 1 {
				ci.runLen = 1
			}
			ci.slots = uint64(in.bytes/in.stride) - uint64(ci.runLen) + 1
		}
		cp.instrs = append(cp.instrs, ci)
	}
	// Intern after folding: a folded walk's Passes is final only now. The
	// memo keeps one geometry, so only a repeat of the previous walk could
	// reuse its pointer: one compare finds it.
	prev := -1 // the previous walk
	for i := range cp.instrs {
		ci := &cp.instrs[i]
		if ci.kind != iWalk {
			continue
		}
		ci.first = int32(i)
		if prev >= 0 && cp.instrs[prev].geom == ci.geom {
			ci.first = cp.instrs[prev].first
		}
		prev = i
	}
	return cp
}

// foldable reports whether walk b directly after walk a decodes as more
// passes of a: every geometry field but Passes is equal.
func foldable(a, b *Walk) bool {
	x := *b
	x.Passes = a.Passes
	return x == *a
}

// walkAt returns the geometry of the walk at pc, shared by its run of
// equal walks, or nil when the step at pc is not a walk.
func (cp *compiledProg) walkAt(pc int) *Walk {
	if cp.instrs[pc].kind != iWalk {
		return nil
	}
	return &cp.instrs[cp.instrs[pc].first].geom
}

// compiled returns the program's compiled form, building it on first use.
// The Program must not be modified after its first Stream.
func (p *Program) compiled() *compiledProg {
	p.once.Do(func() { p.comp = compile(p) })
	return p.comp
}

// Compiled is a chunk-buffered stream over a compiled program: refill
// decodes up to ChunkSize references in segment-sized tight loops, and Next
// only indexes the buffer. Chunked also wraps any other Stream in one, so
// the machine reads every node through the same window.
type Compiled struct {
	prog *compiledProg
	src  Stream // wrapped stream refill pulls from (see Chunked); nil once drained

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

// noProg is a wrapped stream's program: it has no instructions, so
// NextWalk never reports a walk and refill decodes nothing once the
// wrapped stream is drained.
var noProg = &compiledProg{}

// Chunked returns s as a chunk-buffered stream. A *Compiled is returned
// unchanged; any other Stream (a trace replay, a caller's own) is wrapped
// in a pooled Compiled whose refill pulls up to ChunkSize references from
// it with Next. A wrapped stream never reports a walk.
func Chunked(s Stream) *Compiled {
	if c, ok := s.(*Compiled); ok {
		return c
	}
	c := newCompiledStream(noProg)
	c.src = s
	return c
}

// Recycle returns a stream obtained from Program.Stream or Chunked to the
// shared chunk pool. Only *Compiled streams are pooled; anything else is
// ignored. The stream must not be used after Recycle.
func Recycle(s Stream) {
	if c, ok := s.(*Compiled); ok {
		c.prog, c.src = nil, nil
		compiledPool.Put(c)
	}
}

// Next returns the next reference; ok is false at end of stream.
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

// Pending returns the undelivered references of the current chunk,
// refilling it if exhausted. An empty slice means end of stream.
func (s *Compiled) Pending() []Ref {
	if s.pos == s.n {
		s.refill()
	}
	return s.buf[s.pos:s.n]
}

// Skip consumes the first n references of Pending.
func (s *Compiled) Skip(n int) { s.pos += n }

// NextWalk reports the walk the stream decodes next and its cursor —
// position i of pass pass — when the current chunk is fully consumed and
// the next instruction is a walk; w is nil otherwise (chunk not exhausted,
// a scatter or sync instruction next, or end of stream). The cursor is
// always normalized — refillWalk and AdvanceWalk leave i in [0, Count) and
// pass in [0, Passes) — so a reported walk has at least one reference left.
func (s *Compiled) NextWalk() (w *Walk, pass, i int64) {
	if s.pos != s.n || s.pc >= len(s.prog.instrs) {
		return nil, 0, 0
	}
	return s.prog.walkAt(s.pc), s.pass, s.i
}

// AdvanceWalk consumes the next k references of the walk NextWalk reports
// without decoding them, leaving the cursor exactly where refillWalk would
// after decoding them. k must be at least 1 and at most Walk.Remaining.
func (s *Compiled) AdvanceWalk(k int64) {
	w := &s.prog.instrs[s.pc].geom
	i := s.i + k
	s.pass += i / w.Count
	s.i = i % w.Count
	if s.pass >= w.Passes {
		s.pass = 0
		s.pc++
	}
}

// refill decodes the next chunk of references into the buffer. A chunk is
// either a run of sync and scatter references or part of one walk pass: it
// ends before a walk that would follow other references and at the end of
// a pass, so NextWalk reports every pass of every walk. Chunk boundaries
// change no reference, only where a caller's window runs dry. The decode
// loops write into the stream's fixed chunk array; nothing here may
// allocate (TestHotPathAllocs pins it).
func (s *Compiled) refill() {
	s.pos, s.n = 0, 0
	if s.src != nil {
		for s.n < ChunkSize {
			r, ok := s.src.Next()
			if !ok {
				s.src = nil // never ask a drained stream again
				return
			}
			s.buf[s.n] = r
			s.n++
		}
		return
	}
	for s.n < ChunkSize && s.pc < len(s.prog.instrs) {
		in := &s.prog.instrs[s.pc]
		switch in.kind {
		case iBarrier:
			s.buf[s.n] = Ref{Addr: in.geom.Base, Op: Barrier}
			s.n++
			s.pc++
		case iLock:
			s.buf[s.n] = Ref{Addr: in.geom.Base, Op: Lock}
			s.n++
			s.pc++
		case iUnlock:
			s.buf[s.n] = Ref{Addr: in.geom.Base, Op: Unlock}
			s.n++
			s.pc++
		case iWalk:
			// A walk pass starts its own window, and a window holds no more
			// than one pass's remainder: so every pass reaches the machine's
			// closed-form walk skip with a dry window.
			if s.n == 0 {
				s.refillWalk(&in.geom)
			}
			return
		case iScatter:
			s.refillScatter(in)
		}
	}
}

// refillWalk decodes the rest of the current pass of the walk into the
// empty chunk, or as much of it as fits. Walk offsets never need the
// interpreter's clamp: count = ceil(bytes / stride), so (count-1)*stride <
// bytes always.
func (s *Compiled) refillWalk(w *Walk) {
	left := w.Count - s.i
	if left > ChunkSize {
		left = ChunkSize
	}
	i, off, n := s.i, s.i*w.Stride, 0
	if w.WEvery > 0 {
		// Carry the write-phase counter across the loop instead of
		// dividing per reference: ph == WEvery-1 marks the write slot.
		ph := i % w.WEvery
		for end := i + left; i < end; i++ {
			op := w.Op
			if ph == w.WEvery-1 {
				op = Write
				ph = 0
			} else {
				ph++
			}
			s.buf[n] = Ref{Addr: w.Base + addr.GVA(off), Op: op, Think: w.Think}
			n++
			off += w.Stride
		}
	} else {
		r := Ref{Op: w.Op, Think: w.Think}
		for end := i + left; i < end; i++ {
			r.Addr = w.Base + addr.GVA(off)
			s.buf[n] = r
			n++
			off += w.Stride
		}
	}
	s.i, s.n = i, n
	if s.i < w.Count {
		return // chunk full mid-pass
	}
	s.i = 0
	if s.pass++; s.pass >= w.Passes {
		s.pass = 0
		s.pc++
	}
}

// refillScatter expands as much of the current scatter as fits in the chunk.
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
	if in.geom.WEvery > 0 {
		w = s.i % in.geom.WEvery
	}
	for s.n < ChunkSize && s.i < in.geom.Count {
		if rl == 0 {
			s.runOff = int64(s.rnd.intn(in.slots)) * in.geom.Stride
		} else {
			s.runOff += in.geom.Stride
		}
		if rl++; rl == in.runLen {
			rl = 0
		}
		op := in.geom.Op
		if in.geom.WEvery > 0 {
			if w == in.geom.WEvery-1 {
				op = Write
				w = 0
			} else {
				w++
			}
		}
		s.buf[s.n] = Ref{Addr: in.geom.Base + addr.GVA(s.runOff), Op: op, Think: in.geom.Think}
		s.n++
		s.i++
	}
	if s.i >= in.geom.Count {
		s.i = 0
		s.pc++
	}
}
