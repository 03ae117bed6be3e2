package workload

import (
	"testing"

	"ascoma/internal/addr"
)

// programSource exposes the per-node programs of the built-in generator
// types so equivalence tests can drive both stream implementations over the
// same Program. Declared here (test-only) rather than on the Generator
// interface: production code never needs it.
type programSource interface{ nodeProgram(i int) *Program }

func (b *base) nodeProgram(i int) *Program { return b.progs[i] }
func (s *Synthetic) nodeProgram(i int) *Program {
	s.build()
	return s.progs[i]
}
func (m *Mismatch) nodeProgram(i int) *Program { return m.progs[i] }
func (c *CritSec) nodeProgram(i int) *Program  { return c.progs[i] }
func (r *Resident) nodeProgram(i int) *Program { return r.progs[i] }

// TestCompiledMatchesInterpreted drains the compiled stream and the
// interpreted reference implementation over every node program of every
// registered workload and requires ref-for-ref identity. This is the
// contract the golden harness rests on: compilation must be a pure
// representation change.
func TestCompiledMatchesInterpreted(t *testing.T) {
	scales := []int{16}
	if !testing.Short() {
		// Full size plus a non-divisor scale that exercises odd chunk
		// phase alignment against segment boundaries.
		scales = append(scales, 1, 3)
	}
	for _, name := range Names() {
		for _, scale := range scales {
			g, err := New(name, scale)
			if err != nil {
				t.Fatalf("New(%s, %d): %v", name, scale, err)
			}
			src, ok := g.(programSource)
			if !ok {
				t.Fatalf("%s: generator %T does not expose programs", name, g)
			}
			for n := 0; n < g.Nodes(); n++ {
				p := src.nodeProgram(n)
				want := p.Interpreted()
				got := p.Stream()
				var i int64
				for {
					wr, wok := want.Next()
					gr, gok := got.Next()
					if wok != gok {
						t.Fatalf("%s/%d node %d ref %d: interpreted ok=%v, compiled ok=%v", name, scale, n, i, wok, gok)
					}
					if !wok {
						break
					}
					if wr != gr {
						t.Fatalf("%s/%d node %d ref %d: interpreted %+v, compiled %+v", name, scale, n, i, wr, gr)
					}
					i++
				}
				if refs := p.Refs(); i < refs {
					t.Fatalf("%s/%d node %d: drained %d refs, program declares at least %d", name, scale, n, i, refs)
				}
				Recycle(got)
			}
		}
	}
}

// TestCompiledPendingSkip checks the chunk-borrowing contract the machine's
// step loop relies on: interleaving Pending/Skip with Next in any split
// yields the same sequence as Next alone, and Pending refills across chunk
// boundaries.
func TestCompiledPendingSkip(t *testing.T) {
	p := &Program{}
	// > 2 chunks of refs with a sync ref landing mid-chunk.
	p.WalkRW(addr.SharedBase, 40*1024, 64, 1, 3, 2)
	p.Barrier(1)
	p.Scatter(addr.SharedBase, 64*1024, 64, 300, Write, 1, 42)

	var want []Ref
	ref := p.Interpreted()
	for {
		r, ok := ref.Next()
		if !ok {
			break
		}
		want = append(want, r)
	}

	for _, take := range []int{1, 7, ChunkSize - 1, ChunkSize} {
		s, ok := p.Stream().(*Compiled)
		if !ok {
			t.Fatal("Program.Stream does not return a *Compiled")
		}
		var got []Ref
		for {
			pend := s.Pending()
			if len(pend) == 0 {
				break
			}
			n := take
			if n > len(pend) {
				n = len(pend)
			}
			got = append(got, pend[:n]...)
			s.Skip(n)
			// Alternate consumption styles: one ref through Next.
			if r, ok := s.Next(); ok {
				got = append(got, r)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("take=%d: got %d refs, want %d", take, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("take=%d ref %d: got %+v, want %+v", take, i, got[i], want[i])
			}
		}
		Recycle(s)
	}
}

// TestCompiledRecycleReuse checks that a pooled stream checked out for a
// different program replays that program from the start.
func TestCompiledRecycleReuse(t *testing.T) {
	a := &Program{}
	a.Walk(addr.SharedBase, 8192, 64, 2, Read, 1)
	b := &Program{}
	b.Scatter(addr.SharedBase, 32*1024, 64, 500, Write, 3, 7)

	s := a.Stream()
	for i := 0; i < 10; i++ {
		s.Next()
	}
	Recycle(s)

	want := drain(b.Interpreted())
	got := drain(b.Stream())
	if len(want) != len(got) {
		t.Fatalf("recycled stream: got %d refs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("recycled stream ref %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestNewMemoizes checks that New returns one shared generator per
// (name, scale): the property that lets all 45 cells of a figure grid share
// one compiled workload.
func TestNewMemoizes(t *testing.T) {
	a, err := New("fft", 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New("fft", 8)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("New(fft, 8) returned distinct generators for the same key")
	}
	c, err := New("fft", 16)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("New(fft, 8) and New(fft, 16) share a generator")
	}
	// Streams over the shared generator must be independent cursors.
	s1, s2 := a.Stream(0), a.Stream(0)
	if s1 == s2 {
		t.Fatal("shared generator returned the same stream twice")
	}
	r1, _ := s1.Next()
	for i := 0; i < 100; i++ {
		s2.Next()
	}
	s3 := a.Stream(0)
	r3, _ := s3.Next()
	if r1 != r3 {
		t.Errorf("fresh stream over shared generator starts at %+v, want %+v", r3, r1)
	}
	Recycle(s1)
	Recycle(s2)
	Recycle(s3)
}

// TestCompileInternsWalks pins the two rules compile applies to walks.
// Folding: a walk directly after a walk equal to it in every geometry
// field but Passes becomes one instruction with the passes summed. Interning,
// which the machine's walk-skip memo keys on: a walk whose (folded)
// geometry equals the program's previous walk shares that walk's *Walk,
// sync and scatter steps between them notwithstanding; a walk differing in
// any geometry field gets its own. The memo holds one geometry, so an
// equal walk after a different one gets its own *Walk too.
func TestCompileInternsWalks(t *testing.T) {
	p := &Program{}
	// Each source instruction with the compiled instruction it lands in.
	at := []int{}
	add := func(c int, build func()) {
		build()
		at = append(at, c)
	}
	// Each walk from 3 to 9 differs from the walk before it in one
	// geometry field (passes aside), so none may fold.
	add(0, func() { p.Walk(addr.SharedBase, 4096, 64, 3, Read, 1) })
	add(0, func() { p.Walk(addr.SharedBase, 4096, 64, 2, Read, 1) }) // folds: passes 5
	add(1, func() { p.Barrier(0) })
	add(2, func() { p.Walk(addr.SharedBase, 4096, 64, 5, Read, 1) })     // equal to folded 0
	add(3, func() { p.Walk(addr.SharedBase, 4096, 64, 3, Write, 1) })    // op
	add(4, func() { p.Walk(addr.SharedBase, 2048, 32, 3, Write, 1) })    // stride (same count)
	add(5, func() { p.Walk(addr.SharedBase, 2048, 32, 3, Write, 2) })    // think
	add(6, func() { p.Walk(addr.SharedBase+64, 2048, 32, 3, Write, 2) }) // base
	add(7, func() { p.Walk(addr.SharedBase+64, 1024, 32, 3, Write, 2) }) // count
	add(8, func() { p.WalkRW(addr.SharedBase+64, 1024, 32, 3, 4, 2) })   // op and write period
	add(9, func() { p.WalkRW(addr.SharedBase+64, 1024, 32, 3, 3, 2) })   // write period
	add(10, func() { p.WalkRW(addr.SharedBase, 4096, 64, 3, 4, 1) })
	add(10, func() { p.WalkRW(addr.SharedBase, 4096, 64, 3, 4, 1) }) // folds: passes 6
	add(10, func() { p.WalkRW(addr.SharedBase, 4096, 64, 1, 4, 1) }) // folds: passes 7
	add(11, func() { p.Scatter(addr.SharedBase, 4096, 64, 10, Read, 1, 7) })
	add(12, func() { p.WalkRW(addr.SharedBase, 4096, 64, 7, 4, 1) }) // equal to folded 10
	add(13, func() { p.Barrier(1) })
	add(14, func() { p.WalkRW(addr.SharedBase, 4096, 64, 6, 4, 1) })  // passes differ from 12
	add(15, func() { p.Walk(addr.SharedBase, 4096, 64, 5, Read, 1) }) // equal to 0, not to 14
	cp := p.compiled()
	if len(p.instrs) != len(at) {
		t.Fatalf("%d source instructions, want %d", len(p.instrs), len(at))
	}
	if len(cp.instrs) != 16 {
		t.Fatalf("%d compiled instructions, want 16 (three folds)", len(cp.instrs))
	}
	if cp.walkAt(0) != cp.walkAt(2) || cp.walkAt(10) != cp.walkAt(12) {
		t.Fatal("a walk equal to the previous walk does not share its *Walk across a sync or scatter step")
	}
	if cp.walkAt(1) != nil || cp.walkAt(11) != nil || cp.walkAt(13) != nil {
		t.Fatal("a non-walk instruction reports a walk geometry")
	}
	distinct := map[*Walk]bool{}
	for _, j := range []int{0, 3, 4, 5, 6, 7, 8, 9, 10, 14, 15} {
		distinct[cp.walkAt(j)] = true
	}
	if len(distinct) != 11 {
		t.Fatalf("%d distinct *Walk for 11 walks that differ from the walk before them", len(distinct))
	}
	// Each compiled walk's geometry is its source walks' with the passes
	// summed.
	want := make([]Walk, len(cp.instrs))
	for j := range p.instrs {
		src := &p.instrs[j]
		c := at[j]
		if cp.instrs[c].kind != src.kind {
			t.Fatalf("source instruction %d (kind %d) landed in compiled instruction %d of kind %d", j, src.kind, c, cp.instrs[c].kind)
		}
		if src.kind != iWalk {
			continue
		}
		w := Walk{Base: src.base, Stride: src.stride, Count: src.count,
			WEvery: src.wEvery, Op: src.op, Think: src.think}
		if want[c].Passes > 0 {
			if w.Passes = want[c].Passes; w != want[c] {
				t.Fatalf("source walk %d folded into compiled walk %d of another geometry", j, c)
			}
		}
		w.Passes += src.passes
		want[c] = w
	}
	for c := range cp.instrs {
		if cp.instrs[c].kind != iWalk {
			continue
		}
		if got := cp.walkAt(c); *got != want[c] {
			t.Fatalf("compiled walk %d: geometry %+v, want %+v", c, *got, want[c])
		}
	}
}

// TestAdvanceWalkCursor moves the cursor within a pass, across one pass
// end, across several, and off the end of each walk, checking the cursor
// after every skip and that the next reference is the barrier after the
// walks.
func TestAdvanceWalkCursor(t *testing.T) {
	p := &Program{}
	p.Walk(addr.SharedBase, 640, 64, 20, Read, 1) // 20 passes of 10
	p.Walk(addr.SharedBase, 640, 64, 2, Write, 1)
	p.Walk(addr.SharedBase, 640, 64, 9, Read, 2)
	p.Barrier(0)
	s := p.Stream().(*Compiled)
	defer Recycle(s)
	for _, step := range []struct {
		k         int64
		pass, i   int64
		walkEnded bool
	}{
		{3, 0, 3, false},   // within a pass
		{9, 1, 2, false},   // one pass end
		{25, 3, 7, false},  // two pass ends
		{95, 13, 2, false}, // ten pass ends
		{3, 13, 5, false},  // within a pass again
		{65, 0, 0, true},   // seven pass ends, the walk's last
		{20, 0, 0, true},   // the second walk whole
		{90, 0, 0, true},   // the third walk whole
	} {
		w, pass, i := s.NextWalk()
		if w == nil {
			t.Fatalf("advance %d: no walk reported", step.k)
		}
		s.AdvanceWalk(step.k)
		if step.walkEnded {
			if s.pass != 0 || s.i != 0 {
				t.Fatalf("advance %d from pass %d, position %d: cursor %d/%d after the walk ended", step.k, pass, i, s.pass, s.i)
			}
			continue
		}
		if s.pass != step.pass || s.i != step.i {
			t.Fatalf("advance %d from pass %d, position %d: cursor %d/%d, want %d/%d", step.k, pass, i, s.pass, s.i, step.pass, step.i)
		}
	}
	if w, _, _ := s.NextWalk(); w != nil {
		t.Fatal("a walk is reported after every walk was consumed")
	}
	if r, ok := s.Next(); !ok || r.Op != Barrier {
		t.Fatalf("next reference %+v (ok=%v), want the barrier", r, ok)
	}
}
