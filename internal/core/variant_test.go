package core

import (
	"testing"

	"ascoma/internal/params"
)

func TestVariantNoSCOMAAlloc(t *testing.T) {
	p := defParams()
	a := makeASCOMA(p, NoSCOMAAlloc)
	if a.InitialSCOMA(100, 10) {
		t.Error("NoSCOMAAlloc variant still allocates S-COMA pages")
	}
	// The back-off must remain intact.
	for i := 0; i < FailTolerance*(DisableAfter+1); i++ {
		a.NoteDaemonPass(0, 10, 0, 20)
	}
	if a.RelocationEnabled() {
		t.Error("NoSCOMAAlloc variant lost the back-off")
	}
}

func TestVariantNoBackoff(t *testing.T) {
	p := defParams()
	a := makeASCOMA(p, NoBackoff)
	if !a.InitialSCOMA(100, 10) {
		t.Error("NoBackoff variant lost the allocation preference")
	}
	if !a.AllowHotEviction() {
		t.Error("NoBackoff variant must relocate like R-NUMA (hot eviction)")
	}
	base := a.Threshold()
	for i := 0; i < 100; i++ {
		a.NoteDaemonPass(0, 10, 0, 20)
		a.NoteUpgradeBlocked()
	}
	if a.Threshold() != base {
		t.Error("NoBackoff variant adapted its threshold")
	}
	if !a.RelocationEnabled() {
		t.Error("NoBackoff variant disabled relocation")
	}
	if a.ThrashEvents() != 0 {
		t.Error("NoBackoff variant detected thrashing")
	}
}

func TestVariantFullMatchesDefault(t *testing.T) {
	p := defParams()
	full := makeASCOMA(p, FullASCOMA)
	std := New(params.ASCOMA, p).(*ASCOMA)
	if full.InitialSCOMA(5, 2) != std.InitialSCOMA(5, 2) {
		t.Error("FullASCOMA differs from the standard policy")
	}
	if full.AllowHotEviction() != std.AllowHotEviction() {
		t.Error("FullASCOMA hot-eviction differs")
	}
}
