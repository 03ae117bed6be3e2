package workload

import (
	"testing"

	"ascoma/internal/addr"
)

// drainMatch drains the compiled stream and the interpreted reference over
// the same program and requires ref-for-ref identity.
func drainMatch(t *testing.T, label string, p *Program) {
	t.Helper()
	want := p.Interpreted()
	got := p.Stream()
	var i int64
	for {
		wr, wok := want.Next()
		gr, gok := got.Next()
		if wok != gok {
			t.Fatalf("%s ref %d: interpreted ok=%v, compiled ok=%v", label, i, wok, gok)
		}
		if !wok {
			break
		}
		if wr != gr {
			t.Fatalf("%s ref %d: interpreted %+v, compiled %+v", label, i, wr, gr)
		}
		i++
	}
	Recycle(got)
}

// skipMatch drains the compiled stream chunk by chunk against the
// interpreted reference, and at every exhausted chunk followed by a walk
// moves the cursor k references forward with AdvanceWalk (k drawn from
// seed, 1..Remaining): the skipped references must be exactly the ones the
// reported Walk and cursor describe, and the decoded continuation must
// equal the interpreted stream with those k references skipped.
func skipMatch(t *testing.T, label string, p *Program, seed uint64) {
	t.Helper()
	want := p.Interpreted()
	got := p.Stream().(*Compiled)
	defer Recycle(got)
	r := seed | 1
	var i int64
	for {
		pend := got.Pending()
		for _, gr := range pend {
			wr, ok := want.Next()
			if !ok || wr != gr {
				t.Fatalf("%s ref %d: interpreted %+v (ok=%v), compiled %+v", label, i, wr, ok, gr)
			}
			i++
		}
		if len(pend) == 0 {
			if wr, ok := want.Next(); ok {
				t.Fatalf("%s ref %d: compiled stream ended, interpreted has %+v", label, i, wr)
			}
			return
		}
		got.Skip(len(pend))
		w, pass, at := got.NextWalk()
		if w == nil {
			continue
		}
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		k := 1 + int64(r%uint64(w.Remaining(pass, at)))
		got.AdvanceWalk(k)
		for c, j := int64(0), at; c < k; c++ {
			wr, ok := want.Next()
			op := w.Op
			if w.Write(j) {
				op = Write
			}
			if sk := (Ref{Addr: w.Base + addr.GVA(j*w.Stride), Op: op, Think: w.Think}); !ok || wr != sk {
				t.Fatalf("%s ref %d: skipped %+v per %+v at pass %d, interpreted %+v (ok=%v)", label, i, sk, *w, pass, wr, ok)
			}
			if j++; j == w.Count {
				j = 0
			}
			i++
		}
	}
}

// FuzzCompiledMatchesInterpreted is the differential check behind the
// golden harness, driven by fuzzed inputs instead of the fixed test grid:
// for any registered workload at any scale, and for any raw scatter/walk
// program built from fuzzed geometry and seed, the compiled chunk stream
// must replay exactly the interpreted reference, also when walks are
// partly skipped with AdvanceWalk (skipMatch). The raw program ends in
// repeat%4 copies of one walk, back to back (compile folds them into one
// walk) or, when repeat&4 is set, with a barrier between copies (compile
// interns them to one *Walk).
func FuzzCompiledMatchesInterpreted(f *testing.F) {
	names := Names()
	for i := range names {
		f.Add(uint8(i), uint8(16), uint64(0x9e3779b97f4a7c15), uint16(i), int64(64*1024), int64(64), int64(300), uint8(0))
	}
	// A degenerate-geometry seed: stride > span, tiny scatter.
	f.Add(uint8(0), uint8(255), uint64(1), uint16(255), int64(128), int64(4096), int64(1), uint8(0))
	// A walk repeated three times back to back, then with barriers
	// between the copies.
	f.Add(uint8(1), uint8(32), uint64(7), uint16(0), int64(8*1024), int64(32), int64(301), uint8(3))
	f.Add(uint8(1), uint8(32), uint64(7), uint16(0), int64(8*1024), int64(32), int64(301), uint8(7))

	f.Fuzz(func(t *testing.T, nameIdx, scaleRaw uint8, seed uint64, nodeRaw uint16, bytes, stride, count int64, repeat uint8) {
		// Registered workload: name and node wrap around the registry, and
		// scale is clamped to the cheap end (scale divides the dataset, so
		// small scales are the expensive full-size runs).
		name := names[int(nameIdx)%len(names)]
		scale := 8 + int(scaleRaw)%57
		g, err := New(name, scale)
		if err != nil {
			t.Fatalf("New(%s, %d): %v", name, scale, err)
		}
		src, ok := g.(programSource)
		if !ok {
			t.Fatalf("%s: generator %T does not expose programs", name, g)
		}
		node := int(nodeRaw) % g.Nodes()
		drainMatch(t, name, src.nodeProgram(node))
		skipMatch(t, name, src.nodeProgram(node), seed)

		// Raw program: fuzzed geometry and seed go straight into the
		// builders, which clamp invalid shapes to no-ops themselves.
		bytes %= 256 * 1024
		stride %= 8 * 1024
		count %= 4096
		p := &Program{}
		p.Scatter(addr.SharedBase, bytes, stride, count, Write, 1, seed)
		p.WalkRW(addr.SharedBase, bytes, stride, 2, 3, 1)
		p.Barrier(1)
		p.ScatterRuns(addr.SharedBase, bytes, stride, count, 7, 2, 1, seed^0xdeadbeef)
		p.Walk(addr.SharedBase, bytes, stride/64+1, count%9+1, Write, 0)
		p.Walk(addr.SharedBase, bytes, stride, count%5+1, Read, 3)
		for c := 0; c < int(repeat%4); c++ {
			if c > 0 && repeat&4 != 0 {
				p.Barrier(2 + c)
			}
			p.WalkRW(addr.SharedBase, bytes, stride, count%3+1, 2, 1)
		}
		drainMatch(t, "raw", p)
		skipMatch(t, "raw", p, seed)
	})
}
