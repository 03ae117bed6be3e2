package machine

import (
	"bytes"
	"testing"

	"ascoma/internal/addr"
	"ascoma/internal/params"
	"ascoma/internal/workload"
)

// FuzzWalkSkip is the closed-form walk skip's differential check: for any
// walk geometry — size, stride (sub-line too), passes, write period, op,
// think (zero and negative too), private or shared base — on any quantum
// and architecture, a run from the generator (where verified walks are
// skipped in closed form and whole quanta of them cruise) must produce the
// same statistics as the run of its recorded trace (read through a
// workload.Chunked wrapper, which reports no walk to skip). Both nodes walk the same shape, then repeat%4 more copies of the
// second walk: back to back, which compile folds into one walk, or, when
// repeat&4 is set, with a barrier between copies, which compile interns
// to one *Walk. On a shared base both walk node 0's section, so node 0's
// home accesses and node 1's remote ones invalidate and downgrade each
// other's L1 lines mid-walk.
func FuzzWalkSkip(f *testing.F) {
	f.Add(uint16(4096), uint16(32), uint8(16), uint8(4), false, int8(2), false, uint16(1000), uint8(2), uint8(0))
	f.Add(uint16(2048), uint16(8), uint8(40), uint8(3), false, int8(0), false, uint16(5000), uint8(4), uint8(0))
	f.Add(uint16(1024), uint16(32), uint8(30), uint8(0), true, int8(0), true, uint16(1000), uint8(0), uint8(0))
	f.Add(uint16(512), uint16(4), uint8(25), uint8(0), false, int8(1), true, uint16(3), uint8(2), uint8(0))
	f.Add(uint16(64), uint16(64), uint8(200), uint8(1), false, int8(-5), false, uint16(97), uint8(1), uint8(0))
	f.Add(uint16(2048), uint16(64), uint8(12), uint8(4), false, int8(2), false, uint16(1000), uint8(2), uint8(3))
	f.Add(uint16(2048), uint16(64), uint8(12), uint8(4), false, int8(2), false, uint16(1000), uint8(2), uint8(7))
	f.Add(uint16(1024), uint16(32), uint8(20), uint8(0), true, int8(1), true, uint16(100), uint8(0), uint8(7))
	f.Fuzz(func(t *testing.T, size, stride uint16, passes, wEvery uint8, write bool, think int8, shared bool, quantum uint16, arch uint8, repeat uint8) {
		const pages = 4
		gen := newProbe(2, pages, pages)
		n := 1 + int64(size)%(pages*params.PageSize)
		st := 1 + int64(stride)%512
		ps := 1 + int64(passes)%64
		we := int64(wEvery) % 9
		op := workload.Read
		if write {
			op = workload.Write
		}
		for i := 0; i < gen.Nodes(); i++ {
			p := gen.Program(i)
			base := addr.PrivateRegion(i)
			if shared {
				base = gen.Section(0)
			}
			p.WalkRW(base, n, st, ps, we, int32(think))
			p.Walk(base, n, st, ps, op, int32(think))
			for c := 0; c < int(repeat%4); c++ {
				if repeat&4 != 0 {
					p.Barrier(c)
				}
				p.Walk(base, n, st, ps, op, int32(think))
			}
		}
		archs := params.AllArchs()
		cfg := Config{
			Arch:      archs[int(arch)%len(archs)],
			Pressure:  50,
			Quantum:   1 + int64(quantum)%5000,
			MaxCycles: 1 << 40,
		}
		slow := runStats(t, cfg, workload.Record(gen))
		if fast := runStats(t, cfg, gen); !bytes.Equal(fast, slow) {
			t.Fatalf("%+v: generator stats diverge from the trace's\nfast: %s\nslow: %s", cfg, fast, slow)
		}
	})
}
