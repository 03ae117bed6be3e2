package ascoma

import (
	"runtime/debug"
	"testing"

	"ascoma/internal/estimate"
	"ascoma/internal/workload"
)

// allocCase is one input of TestHotPathAllocs: a run and the exact number
// of heap allocations it makes on a recycled machine.
type allocCase struct {
	name string
	cfg  Config
	want float64
}

// runAllocs is the allocation count of one run on a recycled machine: the
// Result, the stats.Machine and its Nodes slice, the network, the
// machine's run state, and returning the machine to the arena. The event
// path itself allocates nothing.
const runAllocs = 9

// allocCases lists the inputs of TestHotPathAllocs: the 72-config golden
// matrix, then the configurations whose paths the matrix does not reach.
//   - radix takes contended locks, whose waiter queues grow by append
//     (acquireLock); MIG-NUMA's radix takes two more.
//   - MIG-NUMA barnes at 90% migrates into a node with no free frame, and
//     S-COMA em3d at 90% forces out a victim while every page is
//     referenced. Both branches run in the figure grid and perfbench's
//     serve mix; these are the only ones a coverage diff against those
//     configs found outside the matrix.
//   - BenchmarkHotPathTiered's two tiers with the hybrid row-buffer policy
//     reach tier resolution, row-buffer state and promotion.
//   - An observed run attaches a preallocated flight recorder: every Emit
//     lands in the fixed ring, so recording adds no allocation. Epoch
//     probes stay off, because the epoch series grows a row per epoch by
//     design.
//   - BenchmarkResident's L1-resident run goes through the closed-form
//     walk skip and cruise records.
func allocCases() []allocCase {
	var cases []allocCase
	for _, cfg := range goldenConfigs() {
		want := float64(runAllocs)
		if cfg.Workload == "radix" {
			want += 16
			if cfg.Arch == MIGNUMA {
				want += 2
			}
		}
		cases = append(cases, allocCase{goldenKey(cfg), cfg, want})
	}
	tiers := []TierSpec{
		{CapacityPct: 30, ReadCycles: 40, WriteCycles: 60},
		{CapacityPct: 70, ReadCycles: 120, WriteCycles: 300},
	}
	return append(cases, []allocCase{
		{"migrate with no free frame", Config{Arch: MIGNUMA, Workload: "barnes", Pressure: 90, Scale: goldenScale}, runAllocs},
		{"forced victim", Config{Arch: SCOMA, Workload: "em3d", Pressure: 90, Scale: goldenScale}, runAllocs},
		{"tiered", Config{Arch: ASCOMA, Workload: "uniform", Pressure: 50, Scale: goldenScale, Tiers: tiers, PagePolicy: "hybrid"}, runAllocs},
		{"observed", Config{Arch: ASCOMA, Workload: "uniform", Pressure: 50, Scale: 64, Obs: NewRecording(1<<14, 0)}, runAllocs},
		{"resident", Config{Arch: ASCOMA, Workload: "resident", Pressure: 30, Scale: 1, Quantum: 1000}, runAllocs},
	}...)
}

// raceEnabled reports whether the test binary was built with -race, which
// instruments allocations.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestHotPathAllocs pins the heap allocations of whole runs, so a
// construct that allocates on the event path fails here: an append, a
// closure, an interface conversion, a map insert, on any branch one of
// the inputs executes (allocCases). testing.AllocsPerRun averages three
// runs after a warm-up and rounds down. That absorbs the runtime's own
// rare allocations (an interface type assertion rebuilds its cache at
// random, on one miss in 1024) and still fails a construct that
// allocates each time its branch runs. The estimator's Predict, answered
// once per grid cell of an estimate request, must not allocate at all
// over a pressure sweep of every application and architecture.
func TestHotPathAllocs(t *testing.T) {
	if testing.Short() || raceEnabled() {
		t.Skip("simulates the golden matrix; counts need a build without -race")
	}
	// A GC empties the sync.Pool machine arena, and a run that rebuilds
	// its machine allocates hundreds of objects: pause GC so every
	// measured run reuses the machine the run before it released.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	for _, c := range allocCases() {
		got := testing.AllocsPerRun(3, func() {
			if rec := c.cfg.Obs; rec != nil {
				rec.Events.Reset()
			}
			if _, err := Run(c.cfg); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		})
		if got != c.want {
			t.Errorf("%s allocates %.0f times a run, want %.0f", c.name, got, c.want)
		}
	}

	var ests []*estimate.Estimator
	for _, app := range []string{"barnes", "em3d", "fft", "lu", "ocean", "radix"} {
		prof, err := workload.ProfileFor(app, goldenScale)
		if err != nil {
			t.Fatal(err)
		}
		est, err := estimate.New(prof, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		ests = append(ests, est)
	}
	if got := testing.AllocsPerRun(3, func() {
		for _, est := range ests {
			for _, arch := range Archs() {
				for p := 1; p <= 99; p++ {
					est.Predict(arch, p)
				}
			}
		}
	}); got != 0 {
		t.Errorf("estimate.Predict allocates %.0f times over a pressure sweep, want 0", got)
	}
}
