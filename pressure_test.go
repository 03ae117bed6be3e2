package ascoma_test

// Pressure sharing: a finished run certifies every pressure up to its
// PressureCeiling, and Runner.RunAll fills certified cells from it instead
// of simulating them. These tests hold the fills to the simulations they
// replace, byte for byte: over the six figure grids, over the golden
// matrix, and over random configurations (FuzzPressureCeiling).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"ascoma"
	"ascoma/internal/report"
	"ascoma/internal/runcache"
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

// runAllShared runs cells through RunAll on a cached two-slot Runner and
// returns the results with the number of cells that were shared.
func runAllShared(t *testing.T, cells []ascoma.Config) ([]*ascoma.Result, int64) {
	t.Helper()
	cache, err := runcache.New(len(cells), "")
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&runcache.Runner{Cache: cache, Jobs: 2}).RunAll(context.Background(), cells, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Sims+st.Shared+st.MemHits+st.Dedups != int64(len(cells)) {
		t.Errorf("cache stats %+v do not account for %d cells", st, len(cells))
	}
	return res, st.Shared
}

// TestSharedFigureCellsMatchDirectRuns runs the six figure grids at scale
// 8 through RunAll and compares every cell with a direct simulation.
func TestSharedFigureCellsMatchDirectRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the six figure grids twice")
	}
	var cells []ascoma.Config
	for _, app := range report.FigureApps(0) {
		cells = append(cells, ascoma.Config{Arch: ascoma.CCNUMA, Workload: app, Pressure: 50, Scale: 8})
		for _, a := range []ascoma.Arch{ascoma.SCOMA, ascoma.ASCOMA, ascoma.VCNUMA, ascoma.RNUMA} {
			for _, p := range report.DefaultPressures {
				cells = append(cells, ascoma.Config{Arch: a, Workload: app, Pressure: p, Scale: 8})
			}
		}
	}
	got, shared := runAllShared(t, cells)
	if shared == 0 {
		t.Error("no figure cell was shared")
	}
	for i, cfg := range cells {
		want, err := ascoma.RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(statsJSON(t, got[i]), statsJSON(t, want)) {
			t.Errorf("%s %v(%d%%): RunAll result differs from a direct run", cfg.Workload, cfg.Arch, cfg.Pressure)
		}
	}
	t.Logf("%d of %d figure cells shared", shared, len(cells))
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
	got, shared := runAllShared(t, cells)
	if len(cells) != len(want) {
		t.Fatalf("%d golden cells, %d pins", len(cells), len(want))
	}
	for i, cfg := range cells {
		key := goldenKeyOf(cfg)
		if sum := goldenChecksum(t, got[i]); sum != want[key] {
			t.Errorf("%s: RunAll checksum %s, pinned %s", key, sum, want[key])
		}
	}
	t.Logf("%d of %d golden cells shared", shared, len(cells))
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

// TestPressureCeilingZeroForInstrumentedRuns: observed, sampled and
// multi-tier runs certify nothing (coherence-checked runs are covered in
// internal/machine, where the checker is configured).
func TestPressureCeilingZeroForInstrumentedRuns(t *testing.T) {
	base := ascoma.Config{Arch: ascoma.ASCOMA, Workload: "fft", Pressure: 10, Scale: 16}
	plain, err := ascoma.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if plain.PressureCeiling < 10 {
		t.Fatalf("plain run ceiling %d; the cases below would test nothing", plain.PressureCeiling)
	}
	observed, sampled, tiered := base, base, base
	observed.Obs = ascoma.NewRecording(0, 10_000)
	sampled.SampleInterval = 10_000
	tiered.Tiers = []ascoma.TierSpec{{CapacityPct: 50, ReadCycles: 40, WriteCycles: 40}, {CapacityPct: 50, ReadCycles: 160, WriteCycles: 320}}
	for name, cfg := range map[string]ascoma.Config{"observed": observed, "sampled": sampled, "multi-tier": tiered} {
		res, err := ascoma.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.PressureCeiling != 0 {
			t.Errorf("%s run: ceiling %d, want 0", name, res.PressureCeiling)
		}
	}
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
