package ascoma_test

// Cell sharing: a finished run certifies every pressure up to its
// PressureCeiling and every architecture in its SameArchs, and
// Runner.RunAll fills certified cells from it instead of simulating them.
// These tests hold the fills to the simulations they replace, byte for
// byte, Arch and Pressure labels included: over the six figure grids, over
// the golden matrix, and over random configurations (FuzzPressureCeiling,
// FuzzSameArchs).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"testing"

	"ascoma"
	"ascoma/internal/report"
	"ascoma/internal/runcache"
	"ascoma/internal/stats"
)

// statsJSON is the full statistics of a run, Pressure label included.
func statsJSON(t testing.TB, res *ascoma.Result) []byte {
	t.Helper()
	blob, err := json.Marshal(res.Machine)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// runAllShared runs cells through RunAll on a cached Runner with the given
// number of slots and returns the results with the cache's counters.
func runAllShared(t *testing.T, cells []ascoma.Config, jobs int) ([]*ascoma.Result, runcache.Stats) {
	t.Helper()
	cache, err := runcache.New(len(cells), "")
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&runcache.Runner{Cache: cache, Jobs: jobs}).RunAll(context.Background(), cells, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Sims+st.Shared+st.MemHits+st.Dedups != int64(len(cells)) {
		t.Errorf("cache stats %+v do not account for %d cells", st, len(cells))
	}
	return res, st
}

// TestSharedFigureCellsMatchDirectRuns runs the six figure grids at scale
// 8 through RunAll, on one slot and on two, and compares every cell with a
// direct simulation. On one slot the grids simulate at most 72 of their
// 126 cells: pressure sharing alone left 84.
func TestSharedFigureCellsMatchDirectRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the six figure grids twice")
	}
	var cells []ascoma.Config
	for _, app := range report.FigureApps(0) {
		cells = append(cells, report.FigureCells(app, 8, nil)...)
	}
	want := make([][]byte, len(cells))
	for i, cfg := range cells {
		res, err := ascoma.RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = statsJSON(t, res)
	}
	for _, jobs := range []int{1, 2} {
		got, st := runAllShared(t, cells, jobs)
		for i, cfg := range cells {
			if !bytes.Equal(statsJSON(t, got[i]), want[i]) {
				t.Errorf("%d jobs: %s %v(%d%%): RunAll result differs from a direct run", jobs, cfg.Workload, cfg.Arch, cfg.Pressure)
			}
			if got[i].ArchID != cfg.Arch {
				t.Errorf("%d jobs: %s %v(%d%%): result carries ArchID %v", jobs, cfg.Workload, cfg.Arch, cfg.Pressure, got[i].ArchID)
			}
		}
		if jobs == 1 && (st.Sims > 72 || st.Shared < 42) {
			t.Errorf("one slot: %d simulated and %d shared of %d cells; want at most 72 simulated and at least 42 shared", st.Sims, st.Shared, len(cells))
		}
		t.Logf("%d jobs: %d of %d figure cells simulated, %d shared", jobs, st.Sims, len(cells), st.Shared)
	}
	// The grid lists S-COMA before AS-COMA and VC-NUMA before R-NUMA, so
	// on one slot the first of each pair decides it and the second is the
	// shadow. Run it again with the architectures reversed: an R-NUMA or
	// AS-COMA primary then certifies its partner, and a shadow the set
	// fed wrongly shows as a fill that differs from the direct run.
	direct := map[string][]byte{}
	for i, cfg := range cells {
		direct[cellName(cfg)] = want[i]
	}
	var rev []ascoma.Config
	for _, app := range report.FigureApps(0) {
		for _, a := range []ascoma.Arch{ascoma.RNUMA, ascoma.VCNUMA, ascoma.ASCOMA, ascoma.SCOMA} {
			for _, p := range report.DefaultPressures {
				rev = append(rev, ascoma.Config{Arch: a, Workload: app, Pressure: p, Scale: 8})
			}
		}
	}
	got, st := runAllShared(t, rev, 1)
	for i, cfg := range rev {
		if !bytes.Equal(statsJSON(t, got[i]), direct[cellName(cfg)]) {
			t.Errorf("reversed order: %s: RunAll result differs from a direct run", cellName(cfg))
		}
	}
	t.Logf("reversed order, 1 job: %d of %d cells simulated, %d shared", st.Sims, len(rev), st.Shared)
}

// cellName names a grid cell by its workload, architecture and pressure.
func cellName(cfg ascoma.Config) string {
	return fmt.Sprintf("%s %v(%d%%)", cfg.Workload, cfg.Arch, cfg.Pressure)
}

// TestSharedGoldenCellsMatchPins runs the golden matrix through RunAll:
// every result, shared or simulated, must hash to the checksum pinned
// from direct runs in testdata/golden_stats.json.
func TestSharedGoldenCellsMatchPins(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the golden matrix")
	}
	blob, err := os.ReadFile("testdata/golden_stats.json")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	var cells []ascoma.Config
	for _, app := range report.FigureApps(0) {
		for _, a := range []ascoma.Arch{ascoma.CCNUMA, ascoma.SCOMA, ascoma.RNUMA, ascoma.VCNUMA, ascoma.ASCOMA, ascoma.MIGNUMA} {
			for _, p := range []int{10, 70} {
				cells = append(cells, ascoma.Config{Arch: a, Workload: app, Pressure: p, Scale: 8})
			}
		}
	}
	got, st := runAllShared(t, cells, 2)
	if len(cells) != len(want) {
		t.Fatalf("%d golden cells, %d pins", len(cells), len(want))
	}
	for i, cfg := range cells {
		key := goldenKeyOf(cfg)
		if sum := goldenChecksum(t, got[i]); sum != want[key] {
			t.Errorf("%s: RunAll checksum %s, pinned %s", key, sum, want[key])
		}
	}
	t.Logf("%d of %d golden cells shared", st.Shared, len(cells))
}

func goldenKeyOf(cfg ascoma.Config) string {
	return fmt.Sprintf("%v/%s@%d", cfg.Arch, cfg.Workload, cfg.Pressure)
}

// TestPressureCeilingRefusesPressuredCells pins the negative side: radix
// thrashes the page cache, so its 10% run must not cover 30% for any
// pressure-sensitive architecture — and the two runs really differ.
func TestPressureCeilingRefusesPressuredCells(t *testing.T) {
	for _, a := range []ascoma.Arch{ascoma.SCOMA, ascoma.ASCOMA, ascoma.VCNUMA, ascoma.RNUMA} {
		cfg := ascoma.Config{Arch: a, Workload: "radix", Pressure: 10, Scale: 8}
		low, err := ascoma.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if low.PressureCeiling < 10 || low.PressureCeiling >= 30 {
			t.Errorf("radix %v(10%%): ceiling %d, want in [10,30)", a, low.PressureCeiling)
		}
		cfg.Pressure = 30
		high, err := ascoma.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		low.Pressure = 30
		if bytes.Equal(statsJSON(t, low), statsJSON(t, high)) {
			t.Errorf("radix %v: 10%% and 30%% runs are identical; the negative case tests nothing", a)
		}
	}
}

// TestPressureCeilingZeroForInstrumentedRuns: observed and sampled runs
// certify no pressure and no architecture (coherence-checked runs are
// covered in internal/machine, where the checker is configured).
func TestPressureCeilingZeroForInstrumentedRuns(t *testing.T) {
	base := ascoma.Config{Arch: ascoma.ASCOMA, Workload: "fft", Pressure: 10, Scale: 16}
	plain, err := ascoma.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if plain.PressureCeiling < 10 || !plain.SameArchs.Has(ascoma.SCOMA) {
		t.Fatalf("plain run ceiling %d, same %08b; the cases below would test nothing", plain.PressureCeiling, plain.SameArchs)
	}
	observed, sampled := base, base
	observed.Obs = ascoma.NewRecording(0, 10_000)
	sampled.SampleInterval = 10_000
	for name, cfg := range map[string]ascoma.Config{"observed": observed, "sampled": sampled} {
		res, err := ascoma.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.PressureCeiling != 0 || res.SameArchs != 0 {
			t.Errorf("%s run: ceiling %d, same %08b; want 0 and none", name, res.PressureCeiling, res.SameArchs)
		}
	}
}

// TestSameArchsNoneForAblations: an ablated AS-COMA matches no
// architecture's run, so its set shadows nothing and it certifies no
// architecture.
// (NoSCOMAAlloc maps like R-NUMA, so a shadowed run could have matched
// one.)
func TestSameArchsNoneForAblations(t *testing.T) {
	for _, ab := range []ascoma.Ablation{ascoma.AblationNoSCOMAAlloc, ascoma.AblationNoBackoff} {
		res, err := ascoma.Run(ascoma.Config{Arch: ascoma.ASCOMA, Workload: "fft", Pressure: 10, Scale: 16, Ablation: ab})
		if err != nil {
			t.Fatal(err)
		}
		if res.SameArchs != 0 {
			t.Errorf("ablation %d certifies %08b, want none", ab, res.SameArchs)
		}
	}
}

// cappedVC returns the default parameters with VC-NUMA's threshold cap at
// the initial threshold: VC-NUMA's detector then counts thrash events
// without ever moving the threshold, so it answers every query as R-NUMA
// does and differs from it only in ThrashEvents.
func cappedVC() ascoma.Params {
	p := ascoma.DefaultParams()
	p.VCThresholdCap = p.RefetchThreshold
	return p
}

// TestSameArchsChecksThrashEvents: with VC-NUMA's threshold capped, radix
// makes VC-NUMA count thrash events while it answers every query as
// R-NUMA does. The R-NUMA run must not certify VC-NUMA.
func TestSameArchsChecksThrashEvents(t *testing.T) {
	cfg := ascoma.Config{Arch: ascoma.RNUMA, Workload: "radix", Pressure: 90, Scale: 16, Params: cappedVC()}
	rn, err := ascoma.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Arch = ascoma.VCNUMA
	vc, err := ascoma.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if vc.Counter(func(n *stats.Node) int64 { return n.ThrashEvents }) == 0 {
		t.Fatal("capped VC-NUMA counted no thrash events; the case tests nothing")
	}
	if rn.SameArchs.Has(ascoma.VCNUMA) {
		t.Errorf("R-NUMA certifies VC-NUMA, whose run counts thrash events R-NUMA does not")
	}
}

// FuzzSameArchs draws a small configuration, with VC-NUMA's threshold
// optionally capped (cappedVC), and runs it. Every architecture B in the
// run's SameArchs must simulate to the same statistics but for the Arch
// label, and B's run must certify the drawn architecture in turn. When the
// run has a pressure ceiling, B at a drawn pressure P' up to it must also
// simulate to the run's statistics but for the Arch and Pressure labels:
// the cross-architecture, cross-pressure fill RunAll hands out.
func FuzzSameArchs(f *testing.F) {
	apps := ascoma.Workloads()
	archs := append(ascoma.Archs(), ascoma.MIGNUMA)
	archIdx := func(a ascoma.Arch) uint8 { return uint8(slices.Index(archs, a)) }
	idx := func(app string) uint8 { return uint8(slices.Index(apps, app)) }
	// arch, app, scale, pressure, quantum, capped VC-NUMA, P' pick
	f.Add(archIdx(ascoma.ASCOMA), idx("fft"), uint8(0), uint8(9), uint16(0), false, uint8(3))
	f.Add(archIdx(ascoma.SCOMA), idx("em3d"), uint8(1), uint8(9), uint16(0), false, uint8(0))
	f.Add(archIdx(ascoma.RNUMA), idx("lu"), uint8(0), uint8(69), uint16(0), false, uint8(20))
	f.Add(archIdx(ascoma.VCNUMA), idx("lu"), uint8(1), uint8(29), uint16(1000), false, uint8(7))
	f.Add(archIdx(ascoma.CCNUMA), idx("ocean"), uint8(0), uint8(49), uint16(10), false, uint8(90))
	f.Add(archIdx(ascoma.RNUMA), idx("radix"), uint8(0), uint8(89), uint16(0), true, uint8(45))
	f.Fuzz(func(t *testing.T, arch, app, scale uint8, pressure uint8, quantum uint16, capped bool, pick uint8) {
		cfg := ascoma.Config{
			Arch:     archs[int(arch)%len(archs)],
			Workload: apps[int(app)%len(apps)],
			Scale:    16 << (scale % 2),
			Pressure: 1 + int(pressure)%99,
			Quantum:  int64(quantum % 2000),
		}
		if capped {
			cfg.Params = cappedVC()
		}
		res, err := ascoma.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.SameArchs.Has(cfg.Arch) {
			t.Fatalf("%+v certifies its own architecture: %08b", cfg, res.SameArchs)
		}
		for _, b := range archs {
			if !res.SameArchs.Has(b) {
				continue
			}
			other := cfg
			other.Arch = b
			want, err := ascoma.Run(other)
			if err != nil {
				t.Fatal(err)
			}
			got := *res.Machine
			got.Arch = want.Arch
			if !bytes.Equal(statsJSON(t, &ascoma.Result{Machine: &got}), statsJSON(t, want)) {
				t.Fatalf("%+v certifies %v, whose run differs", cfg, b)
			}
			if !want.SameArchs.Has(cfg.Arch) {
				t.Fatalf("%+v certifies %v, whose run certifies %08b without %v", cfg, b, want.SameArchs, cfg.Arch)
			}
			if res.PressureCeiling == 0 {
				continue
			}
			other.Pressure = 1 + int(pick)%res.PressureCeiling
			if want, err = ascoma.Run(other); err != nil {
				t.Fatal(err)
			}
			got.Pressure = want.Machine.Pressure
			if !bytes.Equal(statsJSON(t, &ascoma.Result{Machine: &got}), statsJSON(t, want)) {
				t.Fatalf("%+v (ceiling %d) certifies %v, whose run at %d%% differs", cfg, res.PressureCeiling, b, other.Pressure)
			}
		}
	})
}

// FuzzPressureCeiling draws a small configuration, runs it, and picks a
// pressure P' at or below the run's ceiling. RunAll must fill the P' cell
// from the run, and the fill must equal a direct simulation at P'.
func FuzzPressureCeiling(f *testing.F) {
	f.Add(uint8(0), uint8(4), uint8(0), uint16(0), uint8(9), uint8(3))
	f.Add(uint8(5), uint8(1), uint8(0), uint16(300), uint8(40), uint8(200))
	f.Add(uint8(2), uint8(4), uint8(2), uint16(50), uint8(20), uint8(7))
	f.Add(uint8(6), uint8(4), uint8(1), uint16(1000), uint8(60), uint8(0))
	f.Add(uint8(3), uint8(5), uint8(0), uint16(0), uint8(5), uint8(90))
	apps := ascoma.Workloads()
	archs := append(ascoma.Archs(), ascoma.MIGNUMA)
	f.Fuzz(func(t *testing.T, app, arch, ablation uint8, quantum uint16, pressure, pick uint8) {
		cfg := ascoma.Config{
			Workload: apps[int(app)%len(apps)],
			Arch:     archs[int(arch)%len(archs)],
			Pressure: 1 + int(pressure)%99,
			Scale:    32,
			Quantum:  int64(quantum % 2000),
		}
		if cfg.Arch == ascoma.ASCOMA {
			cfg.Ablation = ascoma.Ablation(ablation % 3)
		}
		res, err := ascoma.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.PressureCeiling == 0 {
			return
		}
		if res.PressureCeiling < cfg.Pressure {
			t.Fatalf("%+v: ceiling %d below the run's own pressure", cfg, res.PressureCeiling)
		}
		other := cfg
		other.Pressure = 1 + int(pick)%res.PressureCeiling
		cache, err := runcache.New(4, "")
		if err != nil {
			t.Fatal(err)
		}
		got, err := (&runcache.Runner{Cache: cache, Jobs: 1}).RunAll(context.Background(), []ascoma.Config{cfg, other}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if other.Pressure != cfg.Pressure && cache.Stats().Shared != 1 {
			t.Fatalf("%+v at %d%%: not filled from the run (stats %+v)", cfg, other.Pressure, cache.Stats())
		}
		want, err := ascoma.Run(other)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(statsJSON(t, got[1]), statsJSON(t, want)) {
			t.Fatalf("%+v (ceiling %d): fill at %d%% differs from the simulation", cfg, res.PressureCeiling, other.Pressure)
		}
	})
}
