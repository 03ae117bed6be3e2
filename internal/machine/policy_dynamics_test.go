package machine

import (
	"testing"

	"ascoma/internal/addr"
	"ascoma/internal/params"
	"ascoma/internal/vm"
	"ascoma/internal/workload"
)

// churnProbe: a workload with more hot remote pages than the page cache
// can hold, driving sustained relocation pressure.
func churnProbe(nodes, pages, iters int) *workload.Programs {
	gen := newProbe(nodes, pages, 8)
	for n := 1; n < nodes; n++ {
		for it := 0; it < iters; it++ {
			gen.Program(n).Walk(gen.Section(0), int64(pages)*params.PageSize, params.BlockSize, 1, workload.Read, 0)
			gen.Program(n).Walk(addr.PrivateRegion(n), 8*params.PageSize, params.LineSize, 1, workload.Read, 0)
		}
	}
	return gen
}

// TestVCNUMAEscalatesUnderChurn: the break-even detector raises VC-NUMA's
// threshold when evicted pages never earn their keep, reducing relocations
// relative to R-NUMA on the same stream.
func TestVCNUMAEscalatesUnderChurn(t *testing.T) {
	gen := func() *workload.Programs { return churnProbe(2, 24, 12) }
	_, rn := run(t, params.RNUMA, gen(), 92)
	_, vc := run(t, params.VCNUMA, gen(), 92)
	rnUp := rn.Nodes[1].Upgrades
	vcUp := vc.Nodes[1].Upgrades
	if rnUp == 0 {
		t.Fatal("R-NUMA never relocated; probe too small")
	}
	if vc.Nodes[1].ThrashEvents == 0 {
		t.Error("VC-NUMA detector never fired")
	}
	if vcUp >= rnUp {
		t.Errorf("VC-NUMA upgrades %d >= R-NUMA %d; back-off ineffective", vcUp, rnUp)
	}
}

// TestASCOMAPressureModeSwitchesAllocation: once the daemon cannot refill
// the pool, newly faulting pages are mapped CC-NUMA even though earlier
// ones were mapped S-COMA.
func TestASCOMAPressureModeSwitchesAllocation(t *testing.T) {
	gen := churnProbe(2, 32, 10)
	m, st := run(t, params.ASCOMA, gen, 92)
	if st.Nodes[1].ThrashEvents == 0 {
		t.Fatal("no thrashing detected; probe too small")
	}
	// Some pages were S-COMA-allocated (the pool's worth) and the rest
	// stayed CC-NUMA.
	var scoma, numa int
	for i := 0; i < 32; i++ {
		pte := m.NodeVM(1).Lookup(addr.PageOf(gen.Section(0)) + addr.Page(i))
		if pte == nil {
			continue
		}
		switch pte.Mode {
		case vm.ModeSCOMA:
			scoma++
		case vm.ModeNUMA:
			numa++
		}
	}
	if scoma == 0 {
		t.Error("no pages were S-COMA-allocated before the pool drained")
	}
	if numa == 0 {
		t.Error("no pages fell back to CC-NUMA mode under pressure")
	}
	// AS-COMA's relocation suppression shows in the counters.
	if st.Nodes[1].RelocDenied == 0 && st.Nodes[1].Upgrades > 20 {
		t.Error("no denial and heavy upgrades: back-off absent")
	}
}

// TestASCOMAMatchesSCOMABelowIdealPressure: below the ideal memory
// pressure, AS-COMA and pure S-COMA behave identically (every remote page
// is S-COMA-mapped at fault, nothing is ever evicted).
func TestASCOMAMatchesSCOMABelowIdealPressure(t *testing.T) {
	gen := func() *workload.Programs { return churnProbe(2, 8, 4) }
	_, sc := run(t, params.SCOMA, gen(), 10)
	_, as := run(t, params.ASCOMA, gen(), 10)
	if sc.ExecTime != as.ExecTime {
		t.Errorf("S-COMA %d != AS-COMA %d below ideal pressure", sc.ExecTime, as.ExecTime)
	}
	if as.Nodes[1].Downgrades != 0 || as.Nodes[1].Upgrades != 0 {
		t.Error("remapping occurred below ideal pressure")
	}
}

// TestSamplesRecorded: the adaptation timeline captures the threshold
// escalation. The timeline tracks node 0, so node 0 does the remote work
// here (reading node 1's section).
func TestSamplesRecorded(t *testing.T) {
	gen := newProbe(2, 32, 8)
	for it := 0; it < 10; it++ {
		gen.Program(0).Walk(gen.Section(1), 32*params.PageSize, params.BlockSize, 1, workload.Read, 0)
		gen.Program(0).Walk(addr.PrivateRegion(0), 8*params.PageSize, params.LineSize, 1, workload.Read, 0)
	}
	m, err := New(Config{Arch: params.ASCOMA, Pressure: 92, SampleInterval: 50_000}, gen)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	samples := m.Samples()
	if len(samples) < 2 {
		t.Fatalf("only %d samples", len(samples))
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].Time <= samples[i-1].Time {
			t.Fatal("sample times not increasing")
		}
		if samples[i].Upgrades < samples[i-1].Upgrades {
			t.Fatal("cumulative counter decreased")
		}
	}
	first, last := samples[0], samples[len(samples)-1]
	if last.Threshold <= first.Threshold && last.Thrash > 0 {
		t.Error("thrash events recorded but the sampled threshold never rose")
	}
}
