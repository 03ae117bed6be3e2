package mem

import (
	"math"
	"testing"

	"ascoma/internal/sim"
)

func twoTiers() []TierSpec {
	return []TierSpec{
		{CapacityPct: 30, ReadCycles: 40, WriteCycles: 60},
		{CapacityPct: 70, ReadCycles: 120, WriteCycles: 300},
	}
}

// TestFlatMatchesBanked pins the paper's uniform memory: one tier at a
// fixed latency with no page policy serves reads and writes exactly as a
// plain sim.Banked charging that latency.
func TestFlatMatchesBanked(t *testing.T) {
	for _, banks := range []int{3, 4} {
		var m Memory
		m.Configure(banks, []TierSpec{{CapacityPct: 100, ReadCycles: 50, WriteCycles: 50}}, PolicyNone)
		var b sim.Banked
		b.Init(banks)
		for i := 0; i < 1000; i++ {
			key := uint64(i*7 + i%3)
			at := sim.Time(i * 11)
			got := m.Acquire(0, key, at, i%3 == 0)
			want := b.Acquire(key, at, 50)
			if got != want {
				t.Fatalf("banks=%d access %d: Memory.Acquire=%d, Banked.Acquire=%d", banks, i, got, want)
			}
		}
		if m.Busy() != b.Busy() {
			t.Fatalf("banks=%d Busy: Memory=%d Banked=%d", banks, m.Busy(), b.Busy())
		}
		if m.NumTiers() != 1 || m.RowHits() != 0 || m.RowConflicts() != 0 {
			t.Fatalf("banks=%d: NumTiers=%d RowHits=%d RowConflicts=%d, want 1,0,0",
				banks, m.NumTiers(), m.RowHits(), m.RowConflicts())
		}
	}
}

func TestOpenPolicyHitAndConflict(t *testing.T) {
	var m Memory
	m.Configure(1, twoTiers(), PolicyOpen)

	// First touch: precharged bank, base latency.
	t0 := m.Acquire(0, 0, 0, false)
	if t0 != 40 {
		t.Fatalf("first touch: done=%d, want 40", t0)
	}
	// Same row (blocks 0..7 share row 0): 75%% of base.
	t1 := m.Acquire(0, 1, t0, false)
	if t1 != t0+30 {
		t.Fatalf("row hit: done=%d, want %d", t1, t0+30)
	}
	if m.RowHits() != 1 {
		t.Fatalf("RowHits=%d, want 1", m.RowHits())
	}
	// Different row: conflict, 150%% of base.
	t2 := m.Acquire(0, RowBlocks, t1, false)
	if t2 != t1+60 {
		t.Fatalf("row conflict: done=%d, want %d", t2, t1+60)
	}
	if m.RowConflicts() != 1 {
		t.Fatalf("RowConflicts=%d, want 1", m.RowConflicts())
	}
	// Slow-tier write pays the write-asymmetric base latency.
	t3 := m.Acquire(1, 0, 0, true)
	if t3 != 300 {
		t.Fatalf("slow write: done=%d, want 300", t3)
	}
}

func TestClosedPolicyNeverHits(t *testing.T) {
	var m Memory
	m.Configure(1, twoTiers(), PolicyClosed)
	var at sim.Time
	for i := 0; i < 16; i++ {
		done := m.Acquire(0, 0, at, false) // same row every time
		if done != at+40 {
			t.Fatalf("access %d: done=%d, want %d (closed policy always pays base)", i, done, at+40)
		}
		at = done
	}
	if m.RowHits() != 0 || m.RowConflicts() != 0 {
		t.Fatalf("closed policy counted hits=%d conflicts=%d", m.RowHits(), m.RowConflicts())
	}
}

func TestHybridPredictorLearnsReuse(t *testing.T) {
	var m Memory
	m.Configure(1, twoTiers(), PolicyHybrid)
	// Repeated same-row accesses: the predictor saturates and leaves the
	// row open, so later accesses hit.
	var at sim.Time
	for i := 0; i < 8; i++ {
		at = m.Acquire(0, 0, at, false)
	}
	if m.RowHits() == 0 {
		t.Fatal("hybrid policy never hit under perfect row reuse")
	}
	// Alternating rows: after a short transient the predictor decays and
	// closes the row, so the stream settles into base-latency accesses —
	// no hits, and no conflicts either (the open policy would conflict on
	// every access here).
	for i := 0; i < 8; i++ {
		at = m.Acquire(0, uint64(i%2)*RowBlocks, at, false)
	}
	hits, conflicts := m.RowHits(), m.RowConflicts()
	for i := 0; i < 32; i++ {
		at = m.Acquire(0, uint64(i%2)*RowBlocks, at, false)
	}
	if m.RowHits() != hits || m.RowConflicts() != conflicts {
		t.Fatalf("hybrid policy did not settle on an alternating-row stream (hits %d -> %d, conflicts %d -> %d)",
			hits, m.RowHits(), conflicts, m.RowConflicts())
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (sim.Time, int64, int64) {
		var m Memory
		m.Configure(4, twoTiers(), PolicyHybrid)
		var at sim.Time
		for i := 0; i < 5000; i++ {
			tier := i % 2
			key := uint64(i*13+i/7) % 4096
			at = m.Acquire(tier, key, at, i%3 == 0)
		}
		return at, m.RowHits(), m.RowConflicts()
	}
	a1, h1, c1 := run()
	a2, h2, c2 := run()
	if a1 != a2 || h1 != h2 || c1 != c2 {
		t.Fatalf("replay diverged: (%d,%d,%d) vs (%d,%d,%d)", a1, h1, c1, a2, h2, c2)
	}
}

// TestReconfigureRestoresFreshState pins the recycling contract: Configure
// on a used Memory, whatever its previous tiers, bank count and policy,
// serves requests exactly as a fresh Memory configured the same way.
func TestReconfigureRestoresFreshState(t *testing.T) {
	fourTiers := []TierSpec{
		{CapacityPct: 10, ReadCycles: 30, WriteCycles: 30},
		{CapacityPct: 20, ReadCycles: 50, WriteCycles: 90},
		{CapacityPct: 30, ReadCycles: 80, WriteCycles: 200},
		{CapacityPct: 40, ReadCycles: 150, WriteCycles: 400},
	}
	oneTier := []TierSpec{{CapacityPct: 100, ReadCycles: 50, WriteCycles: 50}}
	prev := []struct {
		banks int
		specs []TierSpec
		pol   Policy
	}{
		{2, twoTiers(), PolicyOpen},
		{16, fourTiers, PolicyHybrid},
		{3, oneTier, PolicyNone},
		{12, fourTiers, PolicyClosed},
	}
	for _, want := range prev {
		for _, used := range prev {
			var m Memory
			m.Configure(used.banks, used.specs, used.pol)
			for i := 0; i < 100; i++ {
				m.Acquire(i%len(used.specs), uint64(i), sim.Time(i), i%2 == 0)
			}
			m.Configure(want.banks, want.specs, want.pol)
			var ref Memory
			ref.Configure(want.banks, want.specs, want.pol)
			for i := 0; i < 100; i++ {
				tier := i % len(want.specs)
				got := m.Acquire(tier, uint64(i*3), sim.Time(i), i%5 == 0)
				exp := ref.Acquire(tier, uint64(i*3), sim.Time(i), i%5 == 0)
				if got != exp {
					t.Fatalf("%d banks %v after %d banks %v: access %d got %d, want %d",
						want.banks, want.pol, used.banks, used.pol, i, got, exp)
				}
			}
			if m.RowHits() != ref.RowHits() || m.RowConflicts() != ref.RowConflicts() ||
				m.Busy() != ref.Busy() || m.NumTiers() != ref.NumTiers() {
				t.Fatalf("%d banks %v after %d banks %v: counters diverged",
					want.banks, want.pol, used.banks, used.pol)
			}
			for from := 0; from < MaxTiers; from++ {
				for to := 0; to < MaxTiers; to++ {
					if m.MoveCost(from, to) != ref.MoveCost(from, to) {
						t.Fatalf("MoveCost(%d,%d) diverged after reconfigure", from, to)
					}
				}
			}
		}
	}
}

func TestAcquireAllocFree(t *testing.T) {
	var m Memory
	m.Configure(4, twoTiers(), PolicyHybrid)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		m.Acquire(i%2, uint64(i*31), sim.Time(i), i%4 == 0)
		i++
	})
	if allocs != 0 {
		t.Fatalf("Acquire allocates %.1f/op, want 0", allocs)
	}
}

func TestMoveCost(t *testing.T) {
	var m Memory
	m.Configure(4, twoTiers(), PolicyNone)
	// 32 blocks * (fast read 40 + slow write 300) / 8 = 1360.
	if got := m.MoveCost(0, 1); got != 1360 {
		t.Fatalf("MoveCost(0,1)=%d, want 1360", got)
	}
	// 32 * (slow read 120 + fast write 60) / 8 = 720.
	if got := m.MoveCost(1, 0); got != 720 {
		t.Fatalf("MoveCost(1,0)=%d, want 720", got)
	}
}

func TestValidateTiers(t *testing.T) {
	cases := []struct {
		name  string
		tiers []TierSpec
		ok    bool
	}{
		{"nil", nil, true},
		{"two", twoTiers(), true},
		{"single", []TierSpec{{100, 50, 50}}, true},
		{"sum-low", []TierSpec{{30, 40, 60}, {60, 120, 300}}, false},
		{"sum-high", []TierSpec{{60, 40, 60}, {60, 120, 300}}, false},
		{"zero-cap", []TierSpec{{0, 40, 60}, {100, 120, 300}}, false},
		{"cap-over-100", []TierSpec{{101, 40, 60}, {-1, 120, 300}}, false},
		// The int sum of these shares wraps to exactly 100.
		{"sum-overflow", []TierSpec{{math.MaxInt, 40, 40}, {math.MaxInt, 80, 80}, {102, 100, 100}}, false},
		{"neg-read", []TierSpec{{100, -1, 60}}, false},
		{"zero-write", []TierSpec{{100, 40, 0}}, false},
		{"too-many", []TierSpec{{20, 1, 1}, {20, 1, 1}, {20, 1, 1}, {20, 1, 1}, {20, 1, 1}}, false},
	}
	for _, tc := range cases {
		err := ValidateTiers(tc.tiers)
		if (err == nil) != tc.ok {
			t.Errorf("%s: ValidateTiers = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestParseTiersAndPolicy(t *testing.T) {
	tiers, err := ParseTiers("30:40:60,70:120:300")
	if err != nil {
		t.Fatal(err)
	}
	if len(tiers) != 2 || tiers[0] != (TierSpec{30, 40, 60}) || tiers[1] != (TierSpec{70, 120, 300}) {
		t.Fatalf("ParseTiers = %+v", tiers)
	}
	if got, err := ParseTiers(""); err != nil || got != nil {
		t.Fatalf("ParseTiers(\"\") = %v, %v", got, err)
	}
	for _, bad := range []string{"30:40", "x:40:60", "30:x:60", "30:40:x", "50:40:60,49:120:300"} {
		if _, err := ParseTiers(bad); err == nil {
			t.Errorf("ParseTiers(%q) succeeded, want error", bad)
		}
	}
	for in, want := range map[string]Policy{"": PolicyNone, "none": PolicyNone, "open": PolicyOpen, "closed": PolicyClosed, "hybrid": PolicyHybrid} {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParsePolicy("lru"); err == nil {
		t.Error("ParsePolicy(\"lru\") succeeded, want error")
	}
}

func BenchmarkRowBuffer(b *testing.B) {
	b.ReportAllocs()
	var m Memory
	m.Configure(4, []TierSpec{
		{CapacityPct: 30, ReadCycles: 40, WriteCycles: 60},
		{CapacityPct: 70, ReadCycles: 120, WriteCycles: 300},
	}, PolicyHybrid)
	b.ResetTimer()
	var at sim.Time
	for i := 0; i < b.N; i++ {
		at = m.Acquire(i%2, uint64(i*13)&4095, at, i%4 == 0)
	}
	_ = at
}
