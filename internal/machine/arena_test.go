package machine

import (
	"bytes"
	"encoding/json"
	"testing"

	"ascoma/internal/obs"
	"ascoma/internal/params"
	"ascoma/internal/workload"
)

// emptyArena drops every pooled machine, so the next New of any shape
// builds a fresh one.
func emptyArena() {
	arena.Range(func(k, _ any) bool {
		arena.Delete(k)
		return true
	})
}

// arenaKeys counts the shapes the arena holds a pool for.
func arenaKeys() int {
	n := 0
	arena.Range(func(_, _ any) bool {
		n++
		return true
	})
	return n
}

// recordedRun runs cfg on gen with a flight recorder and epoch probes
// attached and returns the machine (not yet released), its stats as JSON
// and the encoded recording.
func recordedRun(t *testing.T, cfg Config, gen workload.Generator) (*Machine, []byte, []byte) {
	t.Helper()
	rec := obs.NewRecording(1<<14, 5_000)
	cfg.Obs = rec
	m, err := New(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	buf, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return m, buf, obs.AppendRecording(nil, rec)
}

// TestArenaRecycleAcrossRunParams pins that a machine recycled from a cell
// with different run parameters runs exactly as a fresh one: same stats,
// same recorded events and epoch series. The arena key holds only
// allocation sizes, so the earlier cell may differ in pressure, and also
// in footprint: a larger or smaller scale of the same app, or another app
// on the same node count, leaves table entries the recycled run must not
// see.
func TestArenaRecycleAcrossRunParams(t *testing.T) {
	gen := func(app string, scale int) workload.Generator {
		t.Helper()
		g, err := workload.New(app, scale)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	cellB := Config{Arch: params.ASCOMA, Pressure: 10, MaxCycles: 1 << 40}
	genB := gen("fft", 8)
	cellA := Config{Arch: params.ASCOMA, Pressure: 90, MaxCycles: 1 << 40}
	cases := []struct {
		name string
		cfg  Config
		gen  workload.Generator
	}{
		{"run params", cellA, genB},
		{"larger footprint", cellA, gen("fft", 4)},
		{"smaller footprint", cellA, gen("fft", 16)},
		{"other app", cellA, gen("ocean", 8)},
	}

	emptyArena()
	fresh, freshStats, freshRec := recordedRun(t, cellB, genB)
	fresh.Release()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.gen.Nodes() != genB.Nodes() {
				t.Fatalf("cell A runs on %d nodes, cell B on %d: no recycling", tc.gen.Nodes(), genB.Nodes())
			}
			emptyArena()
			// sync.Pool may drop a Put (it does so at random under the
			// race detector), so retry until B lands on A's released
			// machine.
			for attempt := 0; attempt < 20; attempt++ {
				a, _, _ := recordedRun(t, tc.cfg, tc.gen)
				a.Release()
				b, stats, rec := recordedRun(t, cellB, genB)
				b.Release()
				if b != a {
					continue
				}
				if !bytes.Equal(stats, freshStats) {
					t.Error("recycled machine produced different stats than a fresh one")
				}
				if !bytes.Equal(rec, freshRec) {
					t.Error("recycled machine recorded different events or epochs than a fresh one")
				}
				return
			}
			t.Fatal("no run of cell B was recycled from cell A's machine")
		})
	}
}

// TestArenaKeyedByAllocationSize pins the arena's pool key: one app's cells
// across pressures and architectures share one pool; a different node
// count adds one more, and a different home-page footprint (another scale
// of the same app) adds none.
func TestArenaKeyedByAllocationSize(t *testing.T) {
	build := func(app string, scale int, cfg Config) {
		t.Helper()
		gen, err := workload.New(app, scale)
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(cfg, gen)
		if err != nil {
			t.Fatal(err)
		}
		m.Release()
	}
	emptyArena()
	for _, pressure := range []int{10, 30, 50, 70, 90} {
		for _, arch := range append(params.AllArchs(), params.MIGNUMA) {
			build("fft", 8, Config{Arch: arch, Pressure: pressure})
		}
	}
	if n := arenaKeys(); n != 1 {
		t.Fatalf("one app's grid left %d arena keys, want 1", n)
	}
	build("lu", 8, Config{Arch: params.ASCOMA, Pressure: 50})
	if n := arenaKeys(); n != 2 {
		t.Fatalf("a different node count left %d arena keys, want 2", n)
	}
	build("fft", 16, Config{Arch: params.ASCOMA, Pressure: 50})
	if n := arenaKeys(); n != 2 {
		t.Fatalf("a different home-page footprint left %d arena keys, want 2", n)
	}
}
