package machine

import (
	"testing"

	"ascoma/internal/addr"
	"ascoma/internal/params"
	"ascoma/internal/workload"
)

// TestCoherenceCheckerPassesAllArchitectures runs every architecture (and
// both AS-COMA ablations, via workloads that exercise page churn) under the
// version-shadowing checker: any lost invalidation fails the run.
func TestCoherenceCheckerPassesAllArchitectures(t *testing.T) {
	apps := []string{"uniform", "hotcold", "mismatch"}
	archs := append(params.AllArchs(), params.MIGNUMA)
	for _, app := range apps {
		for _, arch := range archs {
			for _, pressure := range []int{20, 85} {
				gen, err := workload.New(app, 16)
				if err != nil {
					t.Fatal(err)
				}
				m, err := New(Config{Arch: arch, Pressure: pressure, CheckCoherence: true}, gen)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := m.Run(); err != nil {
					t.Errorf("%s/%v/%d%%: %v", app, arch, pressure, err)
				}
			}
		}
	}
}

// TestCoherenceCheckerPassesApplications runs the six paper applications
// at small scale under the checker on the architectures that stress page
// remapping hardest.
func TestCoherenceCheckerPassesApplications(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, app := range []string{"barnes", "em3d", "fft", "lu", "ocean", "radix"} {
		for _, arch := range []params.Arch{params.SCOMA, params.RNUMA, params.ASCOMA} {
			gen, err := workload.New(app, 16)
			if err != nil {
				t.Fatal(err)
			}
			m, err := New(Config{Arch: arch, Pressure: 80, CheckCoherence: true}, gen)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(); err != nil {
				t.Errorf("%s/%v: %v", app, arch, err)
			}
		}
	}
}

// TestCheckerDetectsViolations feeds the checker a deliberate stale hit to
// prove it is not vacuously green.
func TestCheckerDetectsViolations(t *testing.T) {
	c := newCoherenceChecker(2)
	b := addr.Block(42)
	c.onFetch(1, b)
	c.onWrite(0, b) // node 0 writes; node 1's copy is now stale
	c.onLocalHit(1, b, "L1")
	if c.Err() == nil {
		t.Fatal("stale hit not detected")
	}
}

func TestCheckerDetectsHitWithoutFetch(t *testing.T) {
	c := newCoherenceChecker(2)
	c.onLocalHit(0, addr.Block(7), "RAC")
	if c.Err() == nil {
		t.Fatal("hit-without-fetch not detected")
	}
}

func TestCheckerAcceptsCurrentCopies(t *testing.T) {
	c := newCoherenceChecker(2)
	b := addr.Block(9)
	c.onFetch(1, b)
	c.onLocalHit(1, b, "L1")
	c.onWrite(0, b)
	c.onInvalidate(1, b)
	c.onFetch(1, b)
	c.onLocalHit(1, b, "L1")
	if err := c.Err(); err != nil {
		t.Fatalf("false positive: %v", err)
	}
}

func TestCheckerErrorBounded(t *testing.T) {
	c := newCoherenceChecker(1)
	for i := 0; i < 1000; i++ {
		c.onLocalHit(0, addr.Block(uint64(i)), "L1")
	}
	if c.Err() == nil {
		t.Fatal("no error")
	}
	if len(c.errs) > 16 {
		t.Errorf("error list unbounded: %d", len(c.errs))
	}
}

// TestCheckerSeesEveryHit pins that a checked run resolves every reference
// through access, whose L1-hit branch calls the checker's hooks: the
// closed-form walk skip never runs under the checker, so no walk is
// verified and no event cruises. The unchecked twin must skip walks, or
// the test would pass vacuously.
func TestCheckerSeesEveryHit(t *testing.T) {
	gen, err := workload.New("resident", 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, checked := range []bool{false, true} {
		m, err := New(Config{Arch: params.ASCOMA, Pressure: 50, Quantum: 1000, CheckCoherence: checked}, gen)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		verified := 0
		for _, nd := range m.nodes {
			if nd.walk.w != nil {
				verified++
			}
		}
		switch {
		case checked && (verified > 0 || m.cruised > 0):
			t.Errorf("checked run: %d nodes verified a walk, %d events cruised; want every reference through access", verified, m.cruised)
		case !checked && (verified == 0 || m.cruised == 0):
			t.Errorf("unchecked run: %d nodes verified a walk, %d events cruised; the closed form no longer engages", verified, m.cruised)
		}
		m.Release()
	}
}
