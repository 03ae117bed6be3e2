package machine

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"ascoma/internal/addr"
	"ascoma/internal/params"
	"ascoma/internal/stats"
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

// horizonSeed is one FuzzCruiseHorizon input (see horizonCase).
type horizonSeed struct {
	nodes     uint8
	spec      []byte
	shape     uint8
	quantum   uint16
	sample    uint16
	maxCycles uint32
}

// horizonSeeds are FuzzCruiseHorizon's seed corpus. It includes the tie
// cases TestCruiseHorizonTies checks for: identical nodes (equal
// periods from equal starts), think 0 beside think 1 at quantum 1000
// (equal periods, 1000 cycles, from different kq), and nodes that walk a
// shared page each round beside cruising ones, so a non-cruiser's event
// can land on a cruise quantum.
var horizonSeeds = []horizonSeed{
	{4, []byte{2, 2, 15, 15}, 0x04, 999, 0, 0},
	{3, []byte{0, 2, 15, 15, 1, 2, 15, 15}, 0x05, 999, 0, 0},
	{6, []byte{1, 2, 15, 0x8f, 1, 2, 15, 15, 3, 2, 7, 15}, 0x07, 499, 0, 0},
	{8, []byte{2, 1, 20, 0x87, 5, 3, 9, 3, 0, 2, 31, 15, 8, 0, 2, 0x80}, 0x06, 1999, 0, 0},
	{2, []byte{2, 2, 15, 15}, 0x04, 0, 0, 0},
	{5, []byte{4, 2, 10, 12, 0, 3, 6, 0x9f}, 0x26, 4999, 4999, 0},
	{7, []byte{1, 2, 15, 15, 6, 1, 3, 0x85}, 0x47, 99, 0, 60_000},
	{3, []byte{2, 2, 31, 15}, 0x85, 2999, 777, 20_000},
	{2, []byte{2, 2, 7, 15, 2, 2, 7, 0x4f}, 0x06, 999, 0, 0},
	{4, []byte{0, 2, 7, 15, 1, 2, 7, 0x4f, 2, 2, 7, 0x4f, 1, 3, 7, 15}, 0x07, 999, 0, 0},
}

// horizonCase builds FuzzCruiseHorizon's machine from its input. nodes
// gives 2-8 nodes. Node i reads four bytes of spec (cyclically; zeros when
// it is empty): think 0-8, stride 8/16/32/64 bytes, passes 1-125, and a
// tile of 256 bytes to 4 KB. shape's low two bits give 1-4 rounds of a
// read-modify-write walk over the node's private tile; bit 2 puts a
// barrier after every round; bits 5-7 pick the architecture. The tile
// byte's bit 0x40 turns node i's walk into a scatter of as many reads over
// its tile: its hits are decoded, not skipped, so its events never cruise
// but keep a cruising node's cadence. Its bit 0x80 also has the node write
// its right neighbor's shared page once per round, a miss-bound step that
// invalidates the neighbor's copies. quantum is
// 1-5000; sample, when nonzero, is node 0's SampleInterval; maxCycles,
// when nonzero, is a small MaxCycles the run may exceed.
func horizonCase(in horizonSeed) (*workload.Programs, Config) {
	n := 2 + int(in.nodes)%7
	gen := newProbe(n, 1, 1)
	at := func(i int) int {
		if len(in.spec) == 0 {
			return 0
		}
		return int(in.spec[i%len(in.spec)])
	}
	rounds := 1 + int(in.shape)%4
	for i := 0; i < n; i++ {
		think := int32(at(4*i) % 9)
		stride := int64(8) << (at(4*i+1) % 4)
		passes := 1 + 4*int64(at(4*i+2)%32)
		tile := 256 * (1 + int64(at(4*i+3)%16))
		p := gen.Program(i)
		for r := 0; r < rounds; r++ {
			if at(4*i+3)&0x40 != 0 {
				p.Scatter(addr.PrivateRegion(i), tile, stride, passes*(tile/stride), workload.Read, think, uint64(i))
			} else {
				p.WalkRW(addr.PrivateRegion(i), tile, stride, passes, 4, think)
			}
			if at(4*i+3)&0x80 != 0 {
				p.Walk(gen.Section((i+1)%n), params.PageSize, params.LineSize, 1, workload.Write, 1)
			}
			if in.shape&4 != 0 {
				p.Barrier(r)
			}
		}
	}
	archs := params.AllArchs()
	cfg := Config{
		Arch:      archs[int(in.shape>>5)%len(archs)],
		Pressure:  50,
		Quantum:   1 + int64(in.quantum)%5000,
		MaxCycles: 1 << 40,
	}
	if in.sample != 0 {
		cfg.SampleInterval = int64(in.sample)
	}
	if in.maxCycles != 0 {
		cfg.MaxCycles = 1 + int64(in.maxCycles)%200_000
	}
	return gen, cfg
}

// horizonRun runs one machine and returns its statistics and samples as
// JSON, and whether it stopped at MaxCycles. A run that stops there
// reports each node's statistics as they stood when it stopped.
func horizonRun(t *testing.T, cfg Config, gen workload.Generator) (st, samples []byte, stopped bool) {
	t.Helper()
	m, err := New(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	res, err := m.Run()
	stopped = err != nil
	var v any = res
	if stopped {
		if !strings.Contains(err.Error(), "exceeded MaxCycles") {
			t.Fatal(err)
		}
		nodes := make([]stats.Node, len(m.nodes))
		for i, nd := range m.nodes {
			nodes[i] = nd.st
		}
		v = nodes
	} else {
		res.Workload = ""
	}
	if st, err = json.Marshal(v); err != nil {
		t.Fatal(err)
	}
	if samples, err = json.Marshal(m.Samples()); err != nil {
		t.Fatal(err)
	}
	return st, samples, stopped
}

// FuzzCruiseHorizon is the cruise horizon's differential check
// (serveCruise and cruiseHorizon): on 2-8 nodes with their own think,
// stride, passes and tile, with barriers, miss-bound steps, node 0
// samples, a MaxCycles stop and any quantum, a run from the generator,
// where cruising nodes are served many quanta in one step, must leave the
// same statistics and samples as the run of its recorded trace, which
// simulates every reference on runNode's loop.
func FuzzCruiseHorizon(f *testing.F) {
	for _, s := range horizonSeeds {
		f.Add(s.nodes, s.spec, s.shape, s.quantum, s.sample, s.maxCycles)
	}
	f.Fuzz(func(t *testing.T, nodes uint8, spec []byte, shape uint8, quantum, sample uint16, maxCycles uint32) {
		if len(spec) > 64 {
			spec = spec[:64]
		}
		gen, cfg := horizonCase(horizonSeed{nodes, spec, shape, quantum, sample, maxCycles})
		slow, slowSamples, slowStopped := horizonRun(t, cfg, workload.Record(gen))
		fast, fastSamples, fastStopped := horizonRun(t, cfg, gen)
		if fastStopped != slowStopped || !bytes.Equal(fast, slow) || !bytes.Equal(fastSamples, slowSamples) {
			t.Fatalf("%+v: generator run diverges from the trace's (stopped %v vs %v)\nfast: %s\nslow: %s",
				cfg, fastStopped, slowStopped, fast, slow)
		}
	})
}
