package ascoma

// Tiered-memory end-to-end pins: asymmetric tiers and row-buffer policies
// must be exactly as deterministic as the flat model, run to run, and the
// placement machinery (fast-first allocation, daemon demotion, hot
// promotion, row-buffer hits) must actually fire on a pressured
// configuration, not just sit behind dead flags.

import (
	"bytes"
	"testing"

	"ascoma/internal/obs"
)

func tieredConfig() Config {
	return Config{
		Arch:     ASCOMA,
		Workload: "radix",
		Pressure: 70,
		Scale:    goldenScale,
		Tiers: []TierSpec{
			{CapacityPct: 30, ReadCycles: 40, WriteCycles: 60},
			{CapacityPct: 70, ReadCycles: 120, WriteCycles: 300},
		},
		PagePolicy: "hybrid",
	}
}

func TestTieredDeterminism(t *testing.T) {
	a, err := Run(tieredConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tieredConfig())
	if err != nil {
		t.Fatal(err)
	}
	if ca, cb := statsChecksum(t, a), statsChecksum(t, b); ca != cb {
		t.Fatalf("tiered run not deterministic: %s vs %s", ca, cb)
	}
}

func TestTieredSlowTierCostsTime(t *testing.T) {
	flat := tieredConfig()
	flat.Tiers, flat.PagePolicy = nil, ""
	fres, err := Run(flat)
	if err != nil {
		t.Fatal(err)
	}
	tres, err := Run(tieredConfig())
	if err != nil {
		t.Fatal(err)
	}
	// A 70%-slow memory cannot be free: the tiered run must differ from
	// the flat one (and, with these latencies, run longer).
	if tres.ExecTime <= fres.ExecTime {
		t.Fatalf("tiered ExecTime %d not above flat %d", tres.ExecTime, fres.ExecTime)
	}
}

func TestTieredAdaptationFires(t *testing.T) {
	cfg := tieredConfig()
	// The fast tier must exceed the resident home set (70% of pages at
	// this pressure) or it is permanently full of home pages and no
	// S-COMA page can ever sit in — or move through — it.
	cfg.Tiers = []TierSpec{
		{CapacityPct: 80, ReadCycles: 40, WriteCycles: 60},
		{CapacityPct: 20, ReadCycles: 120, WriteCycles: 300},
	}
	rec := NewRecording(0, 50_000)
	cfg.Obs = rec
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	var promotes, demotes, rowConfEvents int
	for _, ev := range rec.Events.Events() {
		switch ev.Kind {
		case obs.EvTierPromote:
			promotes++
		case obs.EvTierDemote:
			demotes++
		case obs.EvRowConflict:
			rowConfEvents++
		}
	}
	if demotes == 0 {
		t.Error("pageout daemon never demoted a page under pressure")
	}
	if promotes == 0 {
		t.Error("no hot slow-tier page was ever promoted")
	}
	if rowConfEvents == 0 {
		t.Error("no row-conflict epoch events recorded")
	}
	if n := rec.Epochs.Len(); n == 0 {
		t.Fatal("no epochs sampled")
	}
	var hits, fastPages int64
	for node := 0; node < rec.Epochs.Nodes(); node++ {
		s := rec.Epochs.Series(obs.ProbeRowHits, node)
		hits += s[len(s)-1]
		f := rec.Epochs.Series(obs.ProbeFastTierPages, node)
		fastPages += f[len(f)-1]
	}
	if hits == 0 {
		t.Error("row-buffer hit series is all zero under the hybrid policy")
	}
	if fastPages == 0 {
		t.Error("fast-tier occupancy series is all zero")
	}
}

func TestPagePolicyWithoutTiers(t *testing.T) {
	cfg := tieredConfig()
	cfg.Tiers = nil
	cfg.PagePolicy = "open"
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	flat := tieredConfig()
	flat.Tiers, flat.PagePolicy = nil, ""
	fres, err := Run(flat)
	if err != nil {
		t.Fatal(err)
	}
	// Row-buffer modeling on a single flat-latency tier: open-page hits
	// make local memory cheaper, so the result must differ from flat.
	if res.ExecTime == fres.ExecTime {
		t.Fatal("open-page policy changed nothing")
	}
}

func TestBadTierConfigRejected(t *testing.T) {
	cfg := tieredConfig()
	cfg.Tiers = []TierSpec{{CapacityPct: 50, ReadCycles: 40, WriteCycles: 60}}
	if _, err := Run(cfg); err == nil {
		t.Error("capacities summing to 50% accepted")
	}
	cfg = tieredConfig()
	cfg.PagePolicy = "lru"
	if _, err := Run(cfg); err == nil {
		t.Error("unknown page policy accepted")
	}
}

// TestFlatIsOneTier pins the default memory model: no Tiers is exactly one
// tier at the local memory latency — the same stats and the same recorded
// events and epoch series, for every architecture.
func TestFlatIsOneTier(t *testing.T) {
	lm := DefaultParams().LocalMemCycles
	oneTier := []TierSpec{{CapacityPct: 100, ReadCycles: lm, WriteCycles: lm}}
	run := func(arch Arch, tiers []TierSpec) (string, []byte) {
		rec := NewRecording(1<<14, 5_000)
		res, err := Run(Config{Arch: arch, Workload: "radix", Pressure: 90,
			Scale: goldenScale, Tiers: tiers, Obs: rec})
		if err != nil {
			t.Fatal(err)
		}
		return statsChecksum(t, res), obs.AppendRecording(nil, rec)
	}
	for _, arch := range append(Archs(), MIGNUMA) {
		flatSum, flatRec := run(arch, nil)
		tierSum, tierRec := run(arch, oneTier)
		if flatSum != tierSum {
			t.Errorf("%s: stats checksum %s without tiers, %s with one tier", arch, flatSum, tierSum)
		}
		if !bytes.Equal(flatRec, tierRec) {
			t.Errorf("%s: recording differs between no tiers and one tier", arch)
		}
	}
}
