package core

import (
	"testing"

	"ascoma/internal/params"
)

func TestSetShadowsEveryOtherArch(t *testing.T) {
	for a := params.Arch(0); int(a) < numArchs; a++ {
		var s Set
		s.Reset(a, defParams(), FullASCOMA)
		if got := s.Primary().Arch(); got != a {
			t.Errorf("Reset(%v): primary is %v", a, got)
		}
		if want := allArchs.Without(a); s.Same() != want {
			t.Errorf("Reset(%v): fresh set certifies %08b, want %08b", a, s.Same(), want)
		}
	}
}

// TestSetComparesBranchOutcomes: CC-NUMA never relocates and VC-NUMA
// relocates at the refetch threshold, so they agree on every count below
// it, whatever their Threshold() returns, and part at the first count that
// reaches it.
func TestSetComparesBranchOutcomes(t *testing.T) {
	var s Set
	p := defParams()
	s.Reset(params.CCNUMA, p, FullASCOMA)
	for n := 0; n < p.RefetchThreshold; n++ {
		if s.Relocates(n) {
			t.Fatalf("CC-NUMA relocated at %d refetches", n)
		}
	}
	if !s.Same().Has(params.VCNUMA) || !s.Same().Has(params.RNUMA) {
		t.Fatalf("counts below the threshold dropped VC-NUMA or R-NUMA: %08b", s.Same())
	}
	s.Relocates(p.RefetchThreshold)
	if s.Same().Has(params.VCNUMA) || s.Same().Has(params.RNUMA) || s.Same().Has(params.MIGNUMA) {
		t.Errorf("a count at the threshold kept a relocating shadow: %08b", s.Same())
	}
	if !s.Same().Has(params.SCOMA) {
		t.Errorf("S-COMA never relocates either, yet was dropped: %08b", s.Same())
	}
	// The first remote fault parts the S-COMA-first architectures.
	s.InitialSCOMA(10, 1)
	if s.Same().Has(params.SCOMA) || s.Same().Has(params.ASCOMA) {
		t.Errorf("mapping a page CC-NUMA kept an S-COMA-first shadow: %08b", s.Same())
	}
}

// TestSetFeedsShadows: AS-COMA and S-COMA agree while the pool is full;
// a failed daemon pass is fed to the AS-COMA shadow, whose back-off then
// changes the interval scale and ends the agreement.
func TestSetFeedsShadows(t *testing.T) {
	var s Set
	s.Reset(params.SCOMA, defParams(), FullASCOMA)
	if !s.InitialSCOMA(10, 1) || !s.Same().Has(params.ASCOMA) {
		t.Fatalf("S-COMA and AS-COMA disagree on a full pool: %08b", s.Same())
	}
	for i := 0; i < FailTolerance; i++ {
		s.NoteDaemonPass(0, 10, 0, 0)
	}
	if s.Same().Has(params.ASCOMA) {
		t.Errorf("AS-COMA backed off its daemon interval but still agrees: %08b", s.Same())
	}
}

// TestSetSameChecksThrashEvents: a shadow that answered every query alike
// but counted thrash events differently is not certified.
func TestSetSameChecksThrashEvents(t *testing.T) {
	var s Set
	s.Reset(params.RNUMA, defParams(), FullASCOMA)
	s.vc.thrashEvents++
	if s.Same().Has(params.VCNUMA) {
		t.Errorf("VC-NUMA counted a thrash event R-NUMA did not, yet is certified: %08b", s.Same())
	}
}

// TestSetWithPrimaryCertifiesNothing: a set whose AS-COMA is ablated
// decides with its own ablated AS-COMA and shadows nothing.
func TestSetWithPrimaryCertifiesNothing(t *testing.T) {
	var s Set
	p := defParams()
	for _, v := range []ASCOMAVariant{NoSCOMAAlloc, NoBackoff} {
		s.Reset(params.ASCOMA, p, v)
		want := makeASCOMA(p, v)
		if s.Primary() != Policy(&s.as) || s.as != want || s.Same() != 0 {
			t.Errorf("variant %d: primary %v, certifies %08b; want the set's ablated AS-COMA and nothing", v, s.Primary(), s.Same())
		}
	}
}

func TestSetAllocationFree(t *testing.T) {
	var s Set
	p := defParams()
	allocs := testing.AllocsPerRun(100, func() {
		s.Reset(params.ASCOMA, p, FullASCOMA)
		s.InitialSCOMA(3, 1)
		s.Relocates(70)
		s.Migrates()
		s.AllowHotEviction()
		s.NoteUpgradeBlocked()
		s.NoteEviction(3, 4)
		s.NoteDaemonPass(5, 4, 0, 0)
		s.Same()
	})
	if allocs != 0 {
		t.Errorf("Reset and queries allocate %.0f times", allocs)
	}
}

func TestSCOMAFirst(t *testing.T) {
	for a := params.Arch(-1); int(a) <= numArchs; a++ {
		want := a == params.SCOMA || a == params.ASCOMA
		if got := SCOMAFirst(a); got != want {
			t.Errorf("SCOMAFirst(%v) = %v, want %v", a, got, want)
		}
	}
}

func TestArchSetMembership(t *testing.T) {
	s := ArchSet(0).With(params.ASCOMA).With(params.SCOMA)
	if !s.Has(params.ASCOMA) || !s.Has(params.SCOMA) || s.Has(params.CCNUMA) {
		t.Errorf("set %08b: With or Has misbehaves", s)
	}
	if s.Without(params.SCOMA).Has(params.SCOMA) || s.Has(params.Arch(-1)) || s.Has(params.Arch(9)) {
		t.Error("Without or Has out of range misbehaves")
	}
}
