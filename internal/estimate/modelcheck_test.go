package estimate_test

import (
	"math"
	"testing"

	"ascoma"
	"ascoma/internal/estimate"
	"ascoma/internal/params"
	"ascoma/internal/workload"
)

// modelBounds are the documented accuracy thresholds for the analytical
// steady-state estimator, enforced by `make model-check` against the
// 72-config golden matrix (6 apps x 6 archs x {10,70}% pressure at
// scale 8). Values are relative-execution-time error vs the simulator,
// with headroom over the measured errors at calibration time
// (mean/max): CC-NUMA 0.0/0.0, AS-COMA 2.0/4.8, S-COMA 2.7/9.1,
// R-NUMA 3.1/8.8, VC-NUMA 3.1/8.7, MIG-NUMA 3.7/9.8 (percent). A
// simulator or workload change that drifts the model past these bounds
// fails the gate: either recalibrate internal/estimate or re-document
// the bounds here, deliberately.
var modelBounds = map[params.Arch]struct{ mean, max float64 }{
	params.CCNUMA:  {0.005, 0.01},
	params.SCOMA:   {0.045, 0.13},
	params.RNUMA:   {0.05, 0.12},
	params.VCNUMA:  {0.05, 0.12},
	params.ASCOMA:  {0.035, 0.08},
	params.MIGNUMA: {0.06, 0.14},
}

// TestModelCheck simulates every cell of the golden matrix and compares
// the simulator's relative execution time against the estimator's
// prediction, enforcing modelBounds per architecture and logging the
// per-figure error as a tracked metric. It also checks Insensitive, the
// estimator's pressure-equivalence certificate, against each run's
// runtime PressureCeiling: the model must never certify a pressure the
// run does not.
func TestModelCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("model-check simulates the full 72-config golden matrix")
	}
	figures := map[int][]string{
		2: {"barnes", "em3d", "fft"},
		3: {"lu", "ocean", "radix"},
	}
	archs := []params.Arch{params.CCNUMA, params.SCOMA, params.RNUMA,
		params.VCNUMA, params.ASCOMA, params.MIGNUMA}
	pressures := []int{10, 70}

	perArch := map[params.Arch][]float64{}
	perFig := map[int][]float64{}
	cells, certified := 0, 0
	for fig, apps := range figures {
		for _, app := range apps {
			prof, err := workload.ProfileFor(app, 8)
			if err != nil {
				t.Fatalf("profile %s: %v", app, err)
			}
			est, err := estimate.New(prof, params.Default())
			if err != nil {
				t.Fatalf("estimator %s: %v", app, err)
			}
			// Relative times in the figures are normalized to CC-NUMA at
			// the 50% midpoint, same as the estimator's baseline.
			base, err := ascoma.Run(ascoma.Config{Arch: params.CCNUMA, Workload: app, Pressure: 50, Scale: 8})
			if err != nil {
				t.Fatalf("baseline %s: %v", app, err)
			}
			// The highest pressure Insensitive certifies: the model claims
			// every pressure in [1, modelCeil] simulates identically.
			modelCeil := 0
			for q := 1; q <= 99 && est.Insensitive(q); q++ {
				modelCeil = q
			}
			for _, arch := range archs {
				for _, pr := range pressures {
					sim, err := ascoma.Run(ascoma.Config{Arch: arch, Workload: app, Pressure: pr, Scale: 8})
					if err != nil {
						t.Fatalf("%s %v(%d%%): %v", app, arch, pr, err)
					}
					// Soundness of the API's insensitive field: the run's
					// own certificate must cover every pressure the model
					// certifies.
					if pr <= modelCeil {
						certified++
						if sim.PressureCeiling < modelCeil {
							t.Errorf("%s %v(%d%%): Insensitive certifies up to %d%%, the run only up to %d%%",
								app, arch, pr, modelCeil, sim.PressureCeiling)
						}
					}
					pred := est.Predict(arch, pr)
					simRel := float64(sim.ExecTime) / float64(base.ExecTime)
					relErr := math.Abs(pred.RelTime-simRel) / simRel
					perArch[arch] = append(perArch[arch], relErr)
					perFig[fig] = append(perFig[fig], relErr)
					cells++
					if b := modelBounds[arch]; relErr > b.max {
						t.Errorf("%s %v(%d%%): model error %.1f%% exceeds documented max %.1f%% (pred relT %.3f, sim %.3f)",
							app, arch, pr, 100*relErr, 100*b.max, pred.RelTime, simRel)
					}
				}
			}
		}
	}
	if cells != 72 {
		t.Fatalf("golden matrix covered %d cells, want 72", cells)
	}
	t.Logf("Insensitive certified %d of %d cells; each run's ceiling covered the model's", certified, cells)

	for _, arch := range archs {
		errs := perArch[arch]
		mean, max := summarize(errs)
		b := modelBounds[arch]
		if mean > b.mean {
			t.Errorf("%v: mean model error %.2f%% exceeds documented bound %.2f%%", arch, 100*mean, 100*b.mean)
		}
		t.Logf("%-8v mean |err| %4.1f%% (bound %4.1f%%), max %4.1f%% (bound %4.1f%%) over %d cells",
			arch, 100*mean, 100*b.mean, 100*max, 100*b.max, len(errs))
	}
	for _, fig := range []int{2, 3} {
		mean, max := summarize(perFig[fig])
		t.Logf("figure %d: mean |err| %.1f%%, max %.1f%% over %d cells", fig, 100*mean, 100*max, len(perFig[fig]))
	}
}

func summarize(errs []float64) (mean, max float64) {
	for _, e := range errs {
		mean += e
		if e > max {
			max = e
		}
	}
	return mean / float64(len(errs)), max
}
