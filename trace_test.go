package ascoma

// Trace determinism: the flight recorder inherits the simulator's
// determinism guarantee. Events are stamped with simulated cycles only —
// never wall clock — and the codec is canonical, so two identical observed
// runs must produce byte-identical trace files. `make trace-check` proves
// the same property end to end through the ascoma-sim binary.

import (
	"bytes"
	"path/filepath"
	"testing"

	"ascoma/internal/obs"
	"ascoma/internal/workload"
)

func TestTraceDeterminism(t *testing.T) {
	// AS-COMA exercises the adaptive events (upgrades, daemon wakes,
	// threshold back-off); MIG-NUMA adds the migration path.
	for _, arch := range []Arch{ASCOMA, MIGNUMA} {
		cfg := Config{Arch: arch, Workload: "radix", Pressure: 70, Scale: 16}
		var blobs [][]byte
		var last *Recording
		for i := 0; i < 2; i++ {
			rec := NewRecording(1<<12, 5000)
			cfg.Obs = rec
			if _, err := Run(cfg); err != nil {
				t.Fatalf("%v run %d: %v", arch, i, err)
			}
			blobs = append(blobs, obs.AppendRecording(nil, rec))
			last = rec
		}
		if !bytes.Equal(blobs[0], blobs[1]) {
			t.Errorf("%v: identical runs encoded different traces (%d vs %d bytes)",
				arch, len(blobs[0]), len(blobs[1]))
		}
		if last.Events.Total() == 0 {
			t.Errorf("%v: pressured run recorded no events", arch)
		}
		if last.Epochs.Len() == 0 {
			t.Errorf("%v: no epochs sampled", arch)
		}
	}
}

func TestWriteTraceRoundTrip(t *testing.T) {
	rec := NewRecording(0, 10_000)
	if _, err := Run(Config{Arch: ASCOMA, Workload: "uniform", Pressure: 70, Scale: 32, Obs: rec}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.trace")
	if err := WriteTrace(path, rec); err != nil {
		t.Fatal(err)
	}
	dec, err := obs.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Events.Total() != rec.Events.Total() || dec.Epochs.Len() != rec.Epochs.Len() {
		t.Fatalf("decoded %d events/%d epochs, want %d/%d",
			dec.Events.Total(), dec.Epochs.Len(), rec.Events.Total(), rec.Epochs.Len())
	}
}

// TestObservedRunBypassesNothing pins that an observed run returns the same
// statistics as an unobserved one: for a config with heavy relocation churn
// and a deliberately tiny ring, and for every architecture on pressured
// radix with epoch probes on (the golden matrix covers this at scale; this
// is the fast direct check).
func TestObservedRunBypassesNothing(t *testing.T) {
	cfg := Config{Arch: ASCOMA, Workload: "hotcold", Pressure: 70, Scale: 16}
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Obs = NewRecording(64, 2000) // deliberately tiny ring: wrap must not perturb
	observed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.ExecTime != observed.ExecTime {
		t.Fatalf("recorder perturbed the run: exec %d vs %d cycles",
			plain.ExecTime, observed.ExecTime)
	}

	for _, arch := range append(Archs(), MIGNUMA) {
		cfg := Config{Arch: arch, Workload: "radix", Pressure: 90, Scale: goldenScale}
		plain, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Obs = NewRecording(1<<14, 5_000)
		observed, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if p, o := statsChecksum(t, plain), statsChecksum(t, observed); p != o {
			t.Errorf("%s: stats checksum %s unobserved, %s observed", arch, p, o)
		}
	}
}

// TestReplayMatchesLive records a workload's reference streams into a
// trace file, reads it back and replays it: the replay must reproduce the
// live run's statistics exactly (only the workload name gains the "-trace"
// suffix).
func TestReplayMatchesLive(t *testing.T) {
	gen, err := workload.New("radix", 16)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "radix.trace")
	if err := WriteTrace(path, &Recording{Refs: workload.Record(gen)}); err != nil {
		t.Fatal(err)
	}
	dec, err := obs.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, arch := range []Arch{ASCOMA, CCNUMA} {
		cfg := Config{Arch: arch, Pressure: 70}
		live, err := RunGenerator(cfg, gen)
		if err != nil {
			t.Fatal(err)
		}
		replay, err := RunGenerator(cfg, dec.Refs)
		if err != nil {
			t.Fatal(err)
		}
		if replay.Workload != live.Workload+"-trace" {
			t.Fatalf("%v: replay workload %q, live %q", arch, replay.Workload, live.Workload)
		}
		replay.Workload = live.Workload
		if got, want := statsChecksum(t, replay), statsChecksum(t, live); got != want {
			t.Errorf("%v: replay stats %s differ from the live run's %s", arch, got, want)
		}
	}
}
