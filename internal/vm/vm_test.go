package vm

import (
	"testing"
	"testing/quick"

	"ascoma/internal/addr"
)

func newVM(total int) *VM { return New(0, total, 2, 7) }

// tpage places a small test ordinal inside the legal shared region: the
// dense page table only covers the shared + private address regions.
func tpage[T ~int | ~uint64](n T) addr.Page {
	return addr.PageOf(addr.SharedBase) + addr.Page(n)
}

func TestThresholdsFromPercent(t *testing.T) {
	v := New(0, 1000, 2, 7)
	if v.FreeMin() != 20 || v.FreeTarget() != 70 {
		t.Errorf("thresholds = (%d, %d), want (20, 70)", v.FreeMin(), v.FreeTarget())
	}
}

func TestThresholdFloors(t *testing.T) {
	v := New(0, 10, 2, 7)
	if v.FreeMin() < 1 {
		t.Error("free_min below 1")
	}
	if v.FreeTarget() < v.FreeMin() {
		t.Error("free_target below free_min")
	}
}

// TestLowFreeTracksEveryDrop: the low-water mark follows the pool down
// through reservation, S-COMA mapping, upgrades and adoption, and stays
// put when pages come back.
func TestLowFreeTracksEveryDrop(t *testing.T) {
	v := newVM(100)
	if v.LowFree() != 100 {
		t.Fatalf("fresh VM low-water mark %d, want 100", v.LowFree())
	}
	if err := v.ReserveHome(40); err != nil {
		t.Fatal(err)
	}
	s := v.MapSCOMA(tpage(1), 1)
	n := v.MapNUMA(tpage(2), 1)
	v.Upgrade(n)
	v.AdoptHomePage()
	if v.Free() != 57 || v.LowFree() != 57 {
		t.Fatalf("free %d, low-water mark %d after three allocations; want 57, 57", v.Free(), v.LowFree())
	}
	v.Downgrade(s)
	v.ReleaseHomePage()
	if v.Free() != 59 || v.LowFree() != 57 {
		t.Errorf("free %d, low-water mark %d after two releases; want 59, 57", v.Free(), v.LowFree())
	}
	v.Reset(100, 2, 7)
	if v.LowFree() != 100 {
		t.Errorf("low-water mark %d after Reset, want 100", v.LowFree())
	}
}

func TestReserveHome(t *testing.T) {
	v := newVM(100)
	if err := v.ReserveHome(40); err != nil {
		t.Fatal(err)
	}
	if v.Free() != 60 || v.HomePages != 40 {
		t.Errorf("free=%d home=%d", v.Free(), v.HomePages)
	}
	if err := v.ReserveHome(61); err == nil {
		t.Error("over-reservation accepted")
	}
}

func TestMapLocalModes(t *testing.T) {
	v := newVM(10)
	pte := v.MapLocal(tpage(1), ModeHome)
	if pte.Mode != ModeHome || pte.Home != 0 {
		t.Errorf("home PTE: %+v", pte)
	}
	if v.Free() != 10 {
		t.Error("MapLocal consumed the pool")
	}
	v.MapLocal(tpage(2), ModePrivate)
	if v.Lookup(tpage(2)).Mode != ModePrivate {
		t.Error("private mapping lost")
	}
}

func TestMapLocalRejectsRemoteModes(t *testing.T) {
	v := newVM(10)
	defer func() {
		if recover() == nil {
			t.Error("MapLocal accepted ModeNUMA")
		}
	}()
	v.MapLocal(tpage(3), ModeNUMA)
}

func TestMapSCOMAConsumesPool(t *testing.T) {
	v := newVM(3)
	for i := 0; i < 3; i++ {
		if v.MapSCOMA(tpage(uint64(i)), 1) == nil {
			t.Fatalf("map %d failed with pool %d", i, v.Free())
		}
	}
	if v.Free() != 0 {
		t.Errorf("free = %d, want 0", v.Free())
	}
	if v.MapSCOMA(tpage(99), 1) != nil {
		t.Error("map succeeded with empty pool")
	}
	if v.SComaPages() != 3 {
		t.Errorf("SComaPages = %d", v.SComaPages())
	}
}

func TestUpgradeDowngradeCycle(t *testing.T) {
	v := newVM(2)
	pte := v.MapNUMA(tpage(5), 1)
	if pte.Mode != ModeNUMA {
		t.Fatal("MapNUMA mode wrong")
	}
	if !v.Upgrade(pte) {
		t.Fatal("upgrade failed with free pool")
	}
	if pte.Mode != ModeSCOMA || v.Free() != 1 || v.SComaPages() != 1 {
		t.Errorf("after upgrade: mode=%v free=%d scoma=%d", pte.Mode, v.Free(), v.SComaPages())
	}
	pte.SetBlockValid(3)
	pte.SetBlockOwned(3)
	pte.SComaHits = 9

	v.Downgrade(pte)
	if pte.Mode != ModeNUMA || v.Free() != 2 || v.SComaPages() != 0 {
		t.Errorf("after downgrade: mode=%v free=%d scoma=%d", pte.Mode, v.Free(), v.SComaPages())
	}
	if pte.Valid != 0 || pte.Owned != 0 || pte.SComaHits != 0 {
		t.Error("downgrade left page-cache state")
	}
}

func TestUpgradeFailsWhenPoolEmpty(t *testing.T) {
	v := newVM(1)
	v.MapSCOMA(tpage(1), 1)
	pte := v.MapNUMA(tpage(2), 1)
	if v.Upgrade(pte) {
		t.Error("upgrade succeeded with empty pool")
	}
	if pte.Mode != ModeNUMA {
		t.Error("failed upgrade changed mode")
	}
}

func TestUpgradeRequiresNUMA(t *testing.T) {
	v := newVM(5)
	pte := v.MapSCOMA(tpage(1), 1)
	defer func() {
		if recover() == nil {
			t.Error("Upgrade of SCOMA page did not panic")
		}
	}()
	v.Upgrade(pte)
}

func TestDowngradeRequiresSCOMA(t *testing.T) {
	v := newVM(5)
	pte := v.MapNUMA(tpage(1), 1)
	defer func() {
		if recover() == nil {
			t.Error("Downgrade of NUMA page did not panic")
		}
	}()
	v.Downgrade(pte)
}

func TestUnmap(t *testing.T) {
	v := newVM(5)
	pte := v.MapSCOMA(tpage(1), 1)
	v.Downgrade(pte)
	v.Unmap(pte)
	if v.Lookup(tpage(1)) != nil {
		t.Error("Unmap left the mapping")
	}
	if pte.Mode != ModeNone {
		t.Error("Unmap left mode")
	}
}

func TestUnmapSCOMAPanics(t *testing.T) {
	v := newVM(5)
	pte := v.MapSCOMA(tpage(1), 1)
	defer func() {
		if recover() == nil {
			t.Error("Unmap of live SCOMA page did not panic")
		}
	}()
	v.Unmap(pte)
}

func TestBlockValidBits(t *testing.T) {
	pte := &PTE{}
	for i := 0; i < 32; i++ {
		if pte.BlockValid(i) {
			t.Fatalf("block %d valid on fresh PTE", i)
		}
	}
	pte.SetBlockValid(0)
	pte.SetBlockValid(31)
	if !pte.BlockValid(0) || !pte.BlockValid(31) || pte.BlockValid(15) {
		t.Error("valid bits wrong")
	}
	if pte.ValidBlocks() != 2 {
		t.Errorf("ValidBlocks = %d", pte.ValidBlocks())
	}
	pte.SetBlockOwned(31)
	pte.ClearBlockValid(31)
	if pte.BlockValid(31) || pte.BlockOwned(31) {
		t.Error("ClearBlockValid left valid or owned bit")
	}
	if pte.ValidBlocks() != 1 {
		t.Errorf("ValidBlocks = %d after clear", pte.ValidBlocks())
	}
}

func TestOwnedBits(t *testing.T) {
	pte := &PTE{}
	pte.SetBlockOwned(4)
	if !pte.BlockOwned(4) {
		t.Error("owned bit not set")
	}
	pte.ClearBlockOwned(4)
	if pte.BlockOwned(4) {
		t.Error("owned bit not cleared")
	}
}

func TestClockSecondChance(t *testing.T) {
	v := newVM(4)
	a := v.MapSCOMA(tpage(1), 1)
	b := v.MapSCOMA(tpage(2), 1)
	a.RefBit, b.RefBit = true, true

	// First sweep clears both bits and finds no victim.
	victim, scanned := v.ClockScan(v.SComaPages())
	if victim != nil || scanned != 2 {
		t.Fatalf("first sweep: victim=%v scanned=%d", victim, scanned)
	}
	// Page a is re-referenced; the next sweep evicts b (or a unreferenced
	// page), not a.
	a.RefBit = true
	victim, _ = v.ClockScan(v.SComaPages())
	if victim == nil {
		t.Fatal("second sweep found no victim")
	}
	if victim == a {
		t.Error("second chance evicted the referenced page")
	}
}

func TestClockScanEmpty(t *testing.T) {
	v := newVM(4)
	if victim, scanned := v.ClockScan(10); victim != nil || scanned != 0 {
		t.Errorf("empty scan: %v, %d", victim, scanned)
	}
}

func TestForceVictimAlwaysFinds(t *testing.T) {
	v := newVM(4)
	a := v.MapSCOMA(tpage(1), 1)
	b := v.MapSCOMA(tpage(2), 1)
	a.RefBit, b.RefBit = true, true
	victim := v.ForceVictim()
	if victim == nil {
		t.Fatal("ForceVictim found nothing among hot pages")
	}
	if victim != a && victim != b {
		t.Fatal("ForceVictim returned unknown page")
	}
}

func TestForceVictimPrefersCold(t *testing.T) {
	v := newVM(4)
	a := v.MapSCOMA(tpage(1), 1)
	b := v.MapSCOMA(tpage(2), 1)
	a.RefBit, b.RefBit = true, false
	if victim := v.ForceVictim(); victim != b {
		t.Errorf("ForceVictim chose %v, want the cold page", victim.Page)
	}
}

func TestForceVictimEmpty(t *testing.T) {
	v := newVM(4)
	if v.ForceVictim() != nil {
		t.Error("ForceVictim on empty ring")
	}
}

func TestPageOfBlock(t *testing.T) {
	v := newVM(4)
	pte := v.MapSCOMA(tpage(6), 1)
	if v.PageOfBlock(tpage(6).BlockAt(5)) != pte {
		t.Error("PageOfBlock missed")
	}
	if v.PageOfBlock(tpage(7).BlockAt(0)) != nil {
		t.Error("PageOfBlock invented a mapping")
	}
}

func TestModeString(t *testing.T) {
	for _, m := range []Mode{ModeNone, ModeHome, ModePrivate, ModeNUMA, ModeSCOMA} {
		if m.String() == "" {
			t.Error("empty mode name")
		}
	}
	if Mode(99).String() == "" {
		t.Error("unknown mode empty")
	}
}

// Property: after any sequence of map/upgrade/downgrade operations, the
// pool accounting balances: free + scoma pages + home reservation equals
// the total, and the clock ring exactly holds the SCOMA pages.
func TestPoolConservationProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		v := New(0, 64, 2, 7)
		if err := v.ReserveHome(16); err != nil {
			return false
		}
		var numa, scoma []*PTE
		next := uint64(1)
		for _, op := range ops {
			switch op % 4 {
			case 0: // map SCOMA
				if pte := v.MapSCOMA(tpage(next), 1); pte != nil {
					scoma = append(scoma, pte)
				}
				next++
			case 1: // map NUMA
				numa = append(numa, v.MapNUMA(tpage(next), 1))
				next++
			case 2: // upgrade a NUMA page
				if len(numa) > 0 {
					pte := numa[len(numa)-1]
					if v.Upgrade(pte) {
						numa = numa[:len(numa)-1]
						scoma = append(scoma, pte)
					}
				}
			case 3: // downgrade a SCOMA page
				if len(scoma) > 0 {
					pte := scoma[len(scoma)-1]
					scoma = scoma[:len(scoma)-1]
					v.Downgrade(pte)
					numa = append(numa, pte)
				}
			}
			if v.Free()+v.SComaPages()+16 != 64 {
				return false
			}
			if v.SComaPages() != len(scoma) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ClockScan never returns a page whose reference bit was set at
// scan time, and always decrements ring membership via Downgrade only.
func TestClockScanNeverEvictsReferencedProperty(t *testing.T) {
	f := func(hotMask uint16) bool {
		v := New(0, 40, 2, 7)
		var pages []*PTE
		for i := 0; i < 16; i++ {
			pte := v.MapSCOMA(tpage(uint64(i+1)), 1)
			pte.RefBit = hotMask&(1<<uint(i)) != 0
			pages = append(pages, pte)
		}
		// One sweep clears bits; referenced pages must survive it.
		victim, _ := v.ClockScan(len(pages))
		if victim != nil && hotMask&(1<<uint(victim.Page-1)) != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAdoptAndReleaseHomePage(t *testing.T) {
	v := newVM(4)
	if !v.AdoptHomePage() {
		t.Fatal("adopt failed with free pages")
	}
	if v.Free() != 3 || v.HomePages != 1 {
		t.Errorf("after adopt: free=%d home=%d", v.Free(), v.HomePages)
	}
	v.ReleaseHomePage()
	if v.Free() != 4 || v.HomePages != 0 {
		t.Errorf("after release: free=%d home=%d", v.Free(), v.HomePages)
	}
	// Drain the pool; adoption must fail.
	for i := 0; i < 4; i++ {
		v.MapSCOMA(tpage(uint64(i+1)), 1)
	}
	if v.AdoptHomePage() {
		t.Error("adopt succeeded with empty pool")
	}
}

func TestPagesCountsMappings(t *testing.T) {
	v := newVM(8)
	v.MapLocal(tpage(1), ModeHome)
	v.MapNUMA(tpage(2), 1)
	v.MapSCOMA(tpage(3), 1)
	if v.Pages() != 3 {
		t.Errorf("Pages = %d, want 3", v.Pages())
	}
}

func TestUnenrollAdjustsClockHand(t *testing.T) {
	v := newVM(8)
	var ptes []*PTE
	for i := 0; i < 4; i++ {
		pte := v.MapSCOMA(tpage(uint64(i+1)), 1)
		pte.RefBit = false
		ptes = append(ptes, pte)
	}
	// Advance the hand near the end of the ring, then remove the last
	// element so the hand index would dangle without the adjustment.
	v.ClockScan(3)
	v.Downgrade(ptes[3])
	// The scan must still work without panicking or skipping.
	if victim, _ := v.ClockScan(v.SComaPages()); victim == nil {
		t.Error("scan found no victim after unenroll near the hand")
	}
}

// Flat frame accounting: the tests below pin what each pool operation
// does to Free, HomePages and the clock ring on a node with one uniform
// memory.

func TestHomeTierReplaysReserveLayout(t *testing.T) {
	v := newVM(100)
	if err := v.ReserveHome(40); err != nil {
		t.Fatal(err)
	}
	// MapLocal installs the reserved pages one by one; it must not take
	// a second frame for any of them.
	for i := 0; i < 40; i++ {
		if pte := v.MapLocal(tpage(i), ModeHome); pte.Mode != ModeHome || pte.Home != 0 {
			t.Fatalf("home page %d: mode %v home %d", i, pte.Mode, pte.Home)
		}
	}
	if v.Free() != 60 || v.HomePages != 40 || v.SComaPages() != 0 {
		t.Fatalf("after MapLocal replay: free=%d home=%d scoma=%d; want 60,40,0",
			v.Free(), v.HomePages, v.SComaPages())
	}
}

func TestMapSCOMAAllocatesAndDowngradeFrees(t *testing.T) {
	v := newVM(100)
	if err := v.ReserveHome(30); err != nil {
		t.Fatal(err)
	}
	pte := v.MapSCOMA(tpage(500), 1)
	if pte == nil || pte.Mode != ModeSCOMA || pte.Home != 1 {
		t.Fatalf("MapSCOMA = %+v", pte)
	}
	if v.Free() != 69 || v.SComaPages() != 1 {
		t.Fatalf("after MapSCOMA: free=%d scoma=%d; want 69,1", v.Free(), v.SComaPages())
	}
	v.Downgrade(pte)
	if v.Free() != 70 || v.SComaPages() != 0 || v.HomePages != 30 {
		t.Fatalf("after Downgrade: free=%d scoma=%d home=%d; want 70,0,30",
			v.Free(), v.SComaPages(), v.HomePages)
	}
	if pte.Mode != ModeNUMA {
		t.Fatalf("downgraded mode = %v, want NUMA", pte.Mode)
	}
}

func TestUpgradeAllocatesFrame(t *testing.T) {
	v := newVM(100)
	pte := v.install(tpage(7), ModeNUMA, 1)
	if !v.Upgrade(pte) {
		t.Fatal("Upgrade failed with a full pool")
	}
	if pte.Mode != ModeSCOMA || !pte.RefBit || v.Free() != 99 || v.SComaPages() != 1 {
		t.Fatalf("upgraded page mode=%v ref=%v free=%d scoma=%d; want SCOMA,true,99,1",
			pte.Mode, pte.RefBit, v.Free(), v.SComaPages())
	}
	if v.LowFree() != 99 {
		t.Fatalf("low-water mark = %d, want 99", v.LowFree())
	}
}

func TestResetClearsTierState(t *testing.T) {
	v := newVM(100)
	if err := v.ReserveHome(10); err != nil {
		t.Fatal(err)
	}
	v.MapSCOMA(tpage(1), 1)
	if !v.AdoptHomePage() {
		t.Fatal("AdoptHomePage failed with free pages")
	}
	v.Reset(100, 2, 7)
	if v.Free() != 100 || v.HomePages != 0 || v.SComaPages() != 0 || v.Pages() != 0 {
		t.Fatalf("Reset left pool state behind: free=%d home=%d scoma=%d pages=%d",
			v.Free(), v.HomePages, v.SComaPages(), v.Pages())
	}
	if v.Lookup(tpage(1)) != nil {
		t.Fatal("Reset left a mapping behind")
	}
	// After Reset every frame is free again and is counted once.
	pte := v.MapSCOMA(tpage(2), 1)
	if pte == nil || v.Free() != 99 || v.SComaPages() != 1 {
		t.Fatalf("after Reset + MapSCOMA: free=%d scoma=%d", v.Free(), v.SComaPages())
	}
	v.Downgrade(pte)
	if v.Free() != 100 {
		t.Fatalf("after Downgrade: free=%d, want 100 (a frame leaked)", v.Free())
	}
}
