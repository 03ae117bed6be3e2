package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"ascoma/internal/jobs"
	"ascoma/internal/runcache"
)

// FuzzDecodeSpecs feeds arbitrary request bodies through the decoder every
// spec endpoint shares, then through each spec's validation, without
// running a simulation or a prediction. Properties: nothing panics; every
// rejection past the decoder is a ValidationError (a 400, never a 500);
// and EstimateSpec.Normalize is idempotent, so the estimate reply key of
// a spec is canonical.
func FuzzDecodeSpecs(f *testing.F) {
	for _, seed := range []string{
		`{"arch":"AS-COMA","workload":"uniform","pressure":70,"scale":32}`,
		`{"arch":"ascoma","workload":"radix","pressure":50,"tiers":[{"capacityPct":30,"readCycles":40,"writeCycles":60},{"capacityPct":70,"readCycles":120,"writeCycles":300}],"pagePolicy":"hybrid"}`,
		`{"run":{"arch":"CC-NUMA","workload":"fft","pressure":10,"epochInterval":5000}}`,
		`{"grid":{"apps":["lu"],"archs":["R-NUMA"],"pressures":[10,90],"scale":8}}`,
		`{"figure":{"app":"ocean","format":"csv","pressures":[30]}}`,
		`{"tierGrid":{"app":"em3d","fastShares":[25,75],"asymmetries":[2]}}`,
		`{"workload":"barnes","scale":64}`,
		`{"workload":"uniform","archs":["CCNUMA","as_coma","AS-COMA"],"pressures":[70,10,70],"scale":0}`,
		`{"workload":"uniform","tiers":[],"pagePolicy":"open"}`,
		`{"workload":"uniform"}{"x":1}`,
		`{"workload":"uniform","pressures":[0]}`,
		`null`,
		`[]`,
		`{"tiers":[{"capacityPct":9223372036854775807,"readCycles":1,"writeCycles":1},{"capacityPct":-9223372036854775707,"readCycles":1,"writeCycles":1}]}`,
		``,
	} {
		f.Add([]byte(seed))
	}
	// A closed manager validates a spec in full, then refuses to admit it:
	// Submit sorts specs into invalid and admissible with nothing run.
	mgr := jobs.NewManager(&runcache.Runner{}, jobs.Options{})
	mgr.Close()
	f.Fuzz(func(t *testing.T, body []byte) {
		var run jobs.RunSpec
		if decodeSpec(bytes.NewReader(body), &run) == nil {
			if _, err := run.Config(); err != nil && !jobs.IsValidation(err) {
				t.Errorf("RunSpec.Config: non-validation error %v", err)
			}
		}

		var spec jobs.Spec
		if decodeSpec(bytes.NewReader(body), &spec) == nil {
			j, err := mgr.Submit(spec)
			switch {
			case j != nil:
				t.Fatal("a closed manager admitted a job")
			case !jobs.IsValidation(err) && !errors.Is(err, jobs.ErrClosed):
				t.Errorf("Submit: %v is neither a validation error nor ErrClosed", err)
			}
		}

		var est jobs.EstimateSpec
		if decodeSpec(bytes.NewReader(body), &est) != nil {
			return
		}
		norm, err := est.Normalize()
		if err != nil {
			if !jobs.IsValidation(err) {
				t.Errorf("Normalize: non-validation error %v", err)
			}
			return
		}
		again, err := norm.Normalize()
		if err != nil {
			t.Fatalf("Normalize rejected its own output %+v: %v", norm, err)
		}
		if !reflect.DeepEqual(again, norm) {
			t.Errorf("Normalize is not idempotent:\n once  %+v\n twice %+v", norm, again)
		}
		k1, err1 := json.Marshal(norm)
		k2, err2 := json.Marshal(again)
		if err1 != nil || err2 != nil || !bytes.Equal(k1, k2) {
			t.Errorf("reply keys differ: %s vs %s (%v, %v)", k1, k2, err1, err2)
		}
	})
}
