package vm

import (
	"testing"

	"ascoma/internal/mem"
)

func tierSpecs() []mem.TierSpec {
	return []mem.TierSpec{
		{CapacityPct: 30, ReadCycles: 40, WriteCycles: 60},
		{CapacityPct: 70, ReadCycles: 120, WriteCycles: 300},
	}
}

func TestConfigureTiersPartition(t *testing.T) {
	v := New(0, 101, 2, 7)
	v.ConfigureTiers(tierSpecs())
	if v.NumTiers() != 2 {
		t.Fatalf("NumTiers=%d, want 2", v.NumTiers())
	}
	// 101*30/100 = 30; last tier takes the integer remainder.
	if v.TierCap(0) != 30 || v.TierCap(1) != 71 {
		t.Fatalf("caps = %d,%d; want 30,71", v.TierCap(0), v.TierCap(1))
	}
	if v.TierCap(0)+v.TierCap(1) != v.TotalPages {
		t.Fatal("tier caps do not partition TotalPages")
	}
}

func TestAllocFrameFastFirst(t *testing.T) {
	v := New(0, 100, 2, 7)
	v.ConfigureTiers(tierSpecs()) // caps 30, 70
	for i := 0; i < 30; i++ {
		if got := v.allocFrame(); got != 0 {
			t.Fatalf("alloc %d: tier %d, want 0", i, got)
		}
	}
	if got := v.allocFrame(); got != 1 {
		t.Fatalf("alloc after fast tier full: tier %d, want 1", got)
	}
	if v.TierPages(0) != 30 || v.TierPages(1) != 1 {
		t.Fatalf("used = %d,%d", v.TierPages(0), v.TierPages(1))
	}
	v.freeFrame(0)
	if got := v.allocFrame(); got != 0 {
		t.Fatalf("alloc after freeing a fast frame: tier %d, want 0", got)
	}
}

func TestHomeTierReplaysReserveLayout(t *testing.T) {
	v := New(0, 100, 2, 7)
	v.ConfigureTiers(tierSpecs())
	if err := v.ReserveHome(40); err != nil {
		t.Fatal(err)
	}
	// The bulk reservation fills fastest-first: 30 fast + 10 slow.
	if v.TierPages(0) != 30 || v.TierPages(1) != 10 {
		t.Fatalf("after ReserveHome(40): used = %d,%d; want 30,10", v.TierPages(0), v.TierPages(1))
	}
	// MapLocal replays the same layout page by page.
	for i := 0; i < 40; i++ {
		pte := v.MapLocal(tpage(i), ModeHome)
		want := uint8(0)
		if i >= 30 {
			want = 1
		}
		if pte.Tier != want {
			t.Fatalf("home page %d: tier %d, want %d", i, pte.Tier, want)
		}
	}
	// The replay must not double-count: used is still the reserved total.
	if v.TierPages(0) != 30 || v.TierPages(1) != 10 {
		t.Fatalf("after MapLocal replay: used = %d,%d; want 30,10", v.TierPages(0), v.TierPages(1))
	}
}

func TestMapSCOMAAllocatesAndDowngradeFrees(t *testing.T) {
	v := New(0, 100, 2, 7)
	v.ConfigureTiers(tierSpecs())
	if err := v.ReserveHome(30); err != nil { // fills the fast tier exactly
		t.Fatal(err)
	}
	pte := v.MapSCOMA(tpage(500), 1)
	if pte.Tier != 1 {
		t.Fatalf("S-COMA page with full fast tier: tier %d, want 1", pte.Tier)
	}
	if v.TierPages(1) != 1 {
		t.Fatalf("slow tier used = %d, want 1", v.TierPages(1))
	}
	v.Downgrade(pte)
	if v.TierPages(1) != 0 {
		t.Fatalf("slow tier used after Downgrade = %d, want 0", v.TierPages(1))
	}
	if pte.Tier != 0 {
		t.Fatalf("downgraded pte.Tier = %d, want 0", pte.Tier)
	}
}

func TestUpgradeAllocatesFrame(t *testing.T) {
	v := New(0, 100, 2, 7)
	v.ConfigureTiers(tierSpecs())
	pte := v.install(tpage(7), ModeNUMA, 1)
	if !v.Upgrade(pte) {
		t.Fatal("Upgrade failed with a full pool")
	}
	if pte.Tier != 0 || v.TierPages(0) != 1 {
		t.Fatalf("upgraded page tier=%d used0=%d; want 0,1", pte.Tier, v.TierPages(0))
	}
}

func TestPromoteDemoteAccounting(t *testing.T) {
	v := New(0, 100, 2, 7)
	v.ConfigureTiers(tierSpecs())
	pte := v.MapSCOMA(tpage(1), 1) // lands in tier 0
	if pte.Tier != 0 {
		t.Fatalf("setup: tier %d, want 0", pte.Tier)
	}
	if v.Promote(pte) {
		t.Fatal("Promote succeeded from tier 0")
	}
	if !v.Demote(pte) || pte.Tier != 1 {
		t.Fatalf("Demote failed or wrong tier (%d)", pte.Tier)
	}
	if v.TierPages(0) != 0 || v.TierPages(1) != 1 {
		t.Fatalf("used after demote = %d,%d; want 0,1", v.TierPages(0), v.TierPages(1))
	}
	if !v.Promote(pte) || pte.Tier != 0 {
		t.Fatalf("Promote failed or wrong tier (%d)", pte.Tier)
	}
	if v.TierPages(0) != 1 || v.TierPages(1) != 0 {
		t.Fatalf("used after promote = %d,%d; want 1,0", v.TierPages(0), v.TierPages(1))
	}

	// Fill the fast tier (1 frame in use + 29 reserved = cap 30):
	// promotion must then fail for a slow-tier page.
	if err := v.ReserveHome(29); err != nil {
		t.Fatal(err)
	}
	other := v.MapSCOMA(tpage(2), 1)
	if other.Tier != 1 {
		t.Fatalf("with fast tier full, new S-COMA page tier = %d, want 1", other.Tier)
	}
	if v.Promote(other) {
		t.Fatal("Promote succeeded into a full fast tier")
	}
	// Demote into a full slow tier must fail too.
	vv := New(0, 10, 2, 7)
	vv.ConfigureTiers([]mem.TierSpec{{CapacityPct: 50, ReadCycles: 1, WriteCycles: 1}, {CapacityPct: 50, ReadCycles: 2, WriteCycles: 2}})
	var last *PTE
	for i := 0; i < 10; i++ {
		last = vv.MapSCOMA(tpage(i), 1)
	}
	if last.Tier != 1 {
		t.Fatalf("last of 10 pages: tier %d, want 1", last.Tier)
	}
	first := vv.Lookup(tpage(0))
	if vv.Demote(first) {
		t.Fatal("Demote succeeded into a full slow tier")
	}
}

func TestAdoptReleaseHomePageTiers(t *testing.T) {
	v := New(0, 100, 2, 7)
	v.ConfigureTiers(tierSpecs())
	tier, ok := v.AdoptHomePage()
	if !ok || tier != 0 {
		t.Fatalf("AdoptHomePage = %d,%v; want 0,true", tier, ok)
	}
	if v.TierPages(0) != 1 {
		t.Fatalf("fast tier used = %d, want 1", v.TierPages(0))
	}
	v.ReleaseHomePage(tier)
	if v.TierPages(0) != 0 {
		t.Fatalf("fast tier used after release = %d, want 0", v.TierPages(0))
	}
}

func TestResetClearsTierState(t *testing.T) {
	v := New(0, 100, 2, 7)
	v.ConfigureTiers(tierSpecs())
	v.MapSCOMA(tpage(1), 1)
	v.Reset(100, 2, 7)
	if v.NumTiers() != 1 || v.TierCap(0) != 100 || v.TierPages(0) != 0 || v.TierPages(1) != 0 {
		t.Fatal("Reset left tier state behind")
	}
	// One tier after Reset: every frame lands in tier 0 and is counted.
	pte := v.MapSCOMA(tpage(2), 1)
	if pte.Tier != 0 || v.TierPages(0) != 1 {
		t.Fatalf("one-tier VM after Reset: tier=%d used0=%d", pte.Tier, v.TierPages(0))
	}
	v.Downgrade(pte)
	if v.Demote(pte) || v.Promote(pte) || v.TierPages(0) != 0 {
		t.Fatalf("one-tier VM: a page moved tiers or a frame leaked (used0=%d)", v.TierPages(0))
	}
}
