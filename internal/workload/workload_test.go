package workload

import (
	"testing"
	"testing/quick"

	"ascoma/internal/addr"
	"ascoma/internal/params"
)

func TestRegistryNames(t *testing.T) {
	names := Names()
	want := []string{"barnes", "critsec", "em3d", "fft", "hotcold", "lu", "mismatch", "ocean", "radix", "resident", "stream", "uniform"}
	if len(names) != len(want) {
		t.Fatalf("Names = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names = %v, want %v", names, want)
		}
	}
}

func TestNewUnknown(t *testing.T) {
	if _, err := New("nope", 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestNewClampsScale(t *testing.T) {
	g, err := New("fft", 0)
	if err != nil || g == nil {
		t.Fatalf("scale 0 rejected: %v", err)
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	Register("fft", NewFFT)
}

func drain(s Stream) []Ref {
	var refs []Ref
	for {
		r, ok := s.Next()
		if !ok {
			return refs
		}
		refs = append(refs, r)
	}
}

// TestStreamsDeterministic: two streams of the same node yield identical
// reference sequences.
func TestStreamsDeterministic(t *testing.T) {
	for _, name := range Names() {
		g, err := New(name, 16)
		if err != nil {
			t.Fatal(err)
		}
		g.Place(func(addr.Page, int) {})
		a := drain(g.Stream(0))
		b := drain(g.Stream(0))
		if len(a) != len(b) {
			t.Fatalf("%s: stream lengths differ: %d vs %d", name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: refs diverge at %d: %v vs %v", name, i, a[i], b[i])
			}
		}
	}
}

// TestBarrierCountsMatchAcrossNodes: a mismatch would stall the machine.
func TestBarrierCountsMatchAcrossNodes(t *testing.T) {
	for _, name := range Names() {
		g, err := New(name, 16)
		if err != nil {
			t.Fatal(err)
		}
		g.Place(func(addr.Page, int) {})
		var want int
		for n := 0; n < g.Nodes(); n++ {
			count := 0
			for _, r := range drain(g.Stream(n)) {
				if r.Op == Barrier {
					count++
				}
			}
			if n == 0 {
				want = count
				continue
			}
			if count != want {
				t.Errorf("%s: node %d has %d barriers, node 0 has %d", name, n, count, want)
			}
		}
	}
}

// TestAddressesWithinDeclaredRegions: every shared reference lands on a
// placed page; every private reference lands in the node's own private
// region.
func TestAddressesWithinDeclaredRegions(t *testing.T) {
	for _, name := range Names() {
		g, err := New(name, 16)
		if err != nil {
			t.Fatal(err)
		}
		placed := map[addr.Page]bool{}
		g.Place(func(p addr.Page, home int) { placed[p] = true })
		for n := 0; n < g.Nodes(); n++ {
			lo := addr.PrivateRegion(n)
			hi := lo + addr.GVA(g.PrivatePagesPerNode())*params.PageSize
			for _, r := range drain(g.Stream(n)) {
				if r.Op == Barrier || r.Op == Lock || r.Op == Unlock {
					continue // Addr is a barrier/mutex id, not an address
				}
				if addr.IsShared(r.Addr) {
					if !placed[addr.PageOf(r.Addr)] {
						t.Fatalf("%s node %d: shared ref %v to unplaced page", name, n, r.Addr)
					}
				} else if r.Addr < lo || r.Addr >= hi {
					t.Fatalf("%s node %d: private ref %v outside region [%v, %v)", name, n, r.Addr, lo, hi)
				}
			}
		}
	}
}

// TestPlacementMatchesHomePages: Place assigns exactly HomePagesPerNode
// pages per node.
func TestPlacementMatchesHomePages(t *testing.T) {
	for _, name := range Names() {
		g, err := New(name, 16)
		if err != nil {
			t.Fatal(err)
		}
		count := map[int]int{}
		pages := map[addr.Page]bool{}
		g.Place(func(p addr.Page, home int) {
			if pages[p] {
				t.Fatalf("%s: page %v placed twice", name, p)
			}
			pages[p] = true
			count[home]++
		})
		if name == "mismatch" {
			// Deliberately skewed: every page homes at node 0, and
			// HomePagesPerNode reports the worst-case reservation.
			if count[0] != g.HomePagesPerNode() {
				t.Errorf("mismatch: node 0 has %d pages, want %d", count[0], g.HomePagesPerNode())
			}
			continue
		}
		for n := 0; n < g.Nodes(); n++ {
			if count[n] != g.HomePagesPerNode() {
				t.Errorf("%s: node %d has %d home pages, want %d", name, n, count[n], g.HomePagesPerNode())
			}
		}
	}
}

func TestProgramRefsCountsEmissions(t *testing.T) {
	p := &Program{}
	p.Walk(addr.SharedBase, 10*params.LineSize, params.LineSize, 2, Read, 1)
	p.Scatter(addr.SharedBase, params.PageSize, params.LineSize, 7, Write, 1, 42)
	p.Barrier(0)
	if p.Refs() != 27 {
		t.Errorf("Refs = %d, want 27", p.Refs())
	}
	refs := drain(p.Stream())
	emitted := 0
	barriers := 0
	for _, r := range refs {
		if r.Op == Barrier {
			barriers++
		} else {
			emitted++
		}
	}
	if emitted != 27 || barriers != 1 {
		t.Errorf("emitted %d refs, %d barriers", emitted, barriers)
	}
	if p.Len() != 3 {
		t.Errorf("Len = %d", p.Len())
	}
}

func TestWalkStrides(t *testing.T) {
	p := &Program{}
	p.Walk(0x1000_0000, 4*params.LineSize, params.LineSize, 1, Read, 0)
	refs := drain(p.Stream())
	for i, r := range refs {
		want := addr.GVA(0x1000_0000 + i*params.LineSize)
		if r.Addr != want {
			t.Errorf("ref %d addr %v, want %v", i, r.Addr, want)
		}
		if r.Op != Read {
			t.Errorf("ref %d op %v", i, r.Op)
		}
	}
}

func TestWalkRWWriteMix(t *testing.T) {
	p := &Program{}
	p.WalkRW(0x1000_0000, 8*params.LineSize, params.LineSize, 1, 4, 0)
	refs := drain(p.Stream())
	writes := 0
	for _, r := range refs {
		if r.Op == Write {
			writes++
		}
	}
	if writes != 2 {
		t.Errorf("writes = %d, want 2 (every 4th of 8)", writes)
	}
}

func TestScatterStaysInRegion(t *testing.T) {
	p := &Program{}
	base := addr.GVA(0x1000_0000)
	p.Scatter(base, 2*params.PageSize, params.LineSize, 500, Read, 0, 7)
	for _, r := range drain(p.Stream()) {
		if r.Addr < base || r.Addr >= base+2*params.PageSize {
			t.Fatalf("scatter escaped region: %v", r.Addr)
		}
		if uint64(r.Addr)%params.LineSize != 0 {
			t.Fatalf("scatter ref unaligned: %v", r.Addr)
		}
	}
}

func TestScatterRunsContiguity(t *testing.T) {
	p := &Program{}
	base := addr.GVA(0x1000_0000)
	p.ScatterRuns(base, 8*params.PageSize, params.BlockSize, 12, 4, 0, 0, 99)
	refs := drain(p.Stream())
	if len(refs) != 12 {
		t.Fatalf("got %d refs", len(refs))
	}
	for i := 0; i < len(refs); i += 4 {
		for j := 1; j < 4; j++ {
			if refs[i+j].Addr != refs[i+j-1].Addr+params.BlockSize {
				t.Fatalf("run %d not contiguous at %d", i/4, j)
			}
		}
	}
	for _, r := range refs {
		if r.Addr < base || r.Addr >= base+8*params.PageSize {
			t.Fatalf("run escaped region: %v", r.Addr)
		}
	}
}

func TestEmptyInstructionsIgnored(t *testing.T) {
	p := &Program{}
	p.Walk(0, 0, params.LineSize, 1, Read, 0)        // zero bytes
	p.Walk(0, 64, 0, 1, Read, 0)                     // zero stride
	p.Walk(0, 64, params.LineSize, 0, Read, 0)       // zero passes
	p.Scatter(0, 64, params.LineSize, 0, Read, 0, 1) // zero count
	if p.Len() != 0 || len(drain(p.Stream())) != 0 {
		t.Error("degenerate instructions emitted refs")
	}
}

// Property: the stream emits exactly Refs() references plus the barrier
// count for any walk/scatter mix.
func TestRefsMatchesStreamProperty(t *testing.T) {
	f := func(walks, scatters uint8) bool {
		p := &Program{}
		nw, ns := int(walks%5), int(scatters%5)
		for i := 0; i < nw; i++ {
			p.Walk(addr.SharedBase, int64(i+1)*params.LineSize, params.LineSize, int64(i%3)+1, Read, 0)
		}
		for i := 0; i < ns; i++ {
			p.Scatter(addr.SharedBase, params.PageSize, params.LineSize, int64(i+1)*3, Write, 0, uint64(i))
		}
		p.Barrier(0)
		refs := drain(p.Stream())
		emitted := int64(0)
		for _, r := range refs {
			if r.Op != Barrier {
				emitted++
			}
		}
		return emitted == p.Refs()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLayoutDistributed(t *testing.T) {
	g := NewPrograms("layout", 4, 10, 0)
	for i := 1; i < 4; i++ {
		if g.Section(i)-g.Section(i-1) != 10*params.PageSize {
			t.Errorf("sections not contiguous: %v then %v", g.Section(i-1), g.Section(i))
		}
	}
	if g.Section(0) != addr.SharedBase {
		t.Errorf("first section at %v", g.Section(0))
	}
}

func TestSeedForDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for n := 0; n < 8; n++ {
		for it := 0; it < 8; it++ {
			s := seedFor("radix", n, it)
			if seen[s] {
				t.Fatalf("seed collision at node %d iter %d", n, it)
			}
			seen[s] = true
		}
	}
	if seedFor("radix", 0, 0) != seedFor("radix", 0, 0) {
		t.Error("seedFor not deterministic")
	}
	if seedFor("radix", 0, 0) == seedFor("lu", 0, 0) {
		t.Error("seed ignores app name")
	}
}

func TestSyntheticScaling(t *testing.T) {
	big, _ := New("uniform", 1)
	small, _ := New("uniform", 8)
	if small.HomePagesPerNode() >= big.HomePagesPerNode() {
		t.Error("scale did not shrink the problem")
	}
}

func TestScaledFloor(t *testing.T) {
	if scaled(100, 1000, 8) != 8 {
		t.Error("scaled floor not applied")
	}
	if scaled(100, 2, 8) != 50 {
		t.Error("scaled division wrong")
	}
}
