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
// fast-forward relies on: interleaving Pending/Skip with Next in any split
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

// TestCompileInternsWalks pins the identity the machine's walk-skip memo
// keys on: a walk whose geometry equals the program's previous walk shares
// that walk's *Walk, sync and scatter steps between them notwithstanding;
// a walk differing in any geometry field gets its own. The memo holds one
// geometry, so an equal walk after a different one gets its own *Walk too.
func TestCompileInternsWalks(t *testing.T) {
	p := &Program{}
	p.Walk(addr.SharedBase, 4096, 64, 3, Read, 1)        // 0
	p.Barrier(0)                                         // 1
	p.Walk(addr.SharedBase, 4096, 64, 3, Read, 1)        // 2: equal to 0
	p.Walk(addr.SharedBase, 4096, 64, 3, Write, 1)       // 3: op
	p.Walk(addr.SharedBase, 4096, 32, 3, Read, 1)        // 4: stride
	p.Walk(addr.SharedBase, 4096, 64, 4, Read, 1)        // 5: passes
	p.Walk(addr.SharedBase, 4096, 64, 3, Read, 2)        // 6: think
	p.Walk(addr.SharedBase+64, 4096, 64, 3, Read, 1)     // 7: base
	p.WalkRW(addr.SharedBase, 4096, 64, 3, 4, 1)         // 8: write period
	p.WalkRW(addr.SharedBase, 4096, 64, 3, 4, 1)         // 9: equal to 8
	p.Scatter(addr.SharedBase, 4096, 64, 10, Read, 1, 7) // 10
	p.WalkRW(addr.SharedBase, 4096, 64, 3, 4, 1)         // 11: equal to 9
	p.Walk(addr.SharedBase, 4096, 64, 3, Read, 1)        // 12: equal to 0, not to 11
	cp := p.compiled()
	if cp.walkAt(0) == nil || cp.walkAt(0) != cp.walkAt(2) ||
		cp.walkAt(8) != cp.walkAt(9) || cp.walkAt(9) != cp.walkAt(11) {
		t.Fatal("a walk equal to the previous walk does not share its *Walk")
	}
	if cp.walkAt(1) != nil || cp.walkAt(10) != nil {
		t.Fatal("a non-walk instruction reports a walk geometry")
	}
	distinct := map[*Walk]bool{}
	for _, j := range []int{0, 3, 4, 5, 6, 7, 8, 12} {
		distinct[cp.walkAt(j)] = true
	}
	if len(distinct) != 8 {
		t.Fatalf("%d distinct *Walk for 8 walks that differ from the walk before them", len(distinct))
	}
	for j := range cp.instrs {
		src := &p.instrs[j]
		if src.kind != iWalk {
			continue
		}
		want := Walk{Base: src.base, Stride: src.stride, Count: src.count, Passes: src.passes,
			WEvery: src.wEvery, Op: src.op, Think: src.think}
		if got := cp.walkAt(j); *got != want {
			t.Fatalf("instruction %d: geometry %+v, want %+v", j, *got, want)
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
