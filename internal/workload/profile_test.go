package workload

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// BenchmarkProfileBuild times a cold profile build of the six applications
// per iteration: buildProfile directly, bypassing ProfileOf's memo, which
// would turn every iteration after the first into a map lookup. The
// generators are built once outside the timed loop, as New memoizes them.
// refs/op-ns is the cost per replayed reference.
func BenchmarkProfileBuild(b *testing.B) {
	for _, scale := range []int{64, 8} {
		b.Run(fmt.Sprintf("scale=%d", scale), func(b *testing.B) {
			gens := make([]Generator, len(profileApps))
			var refs int64
			for i, name := range profileApps {
				g, err := New(name, scale)
				if err != nil {
					b.Fatal(err)
				}
				gens[i] = g
				for _, np := range buildProfile(g).PerNode {
					refs += np.Refs
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, g := range gens {
					buildProfile(g)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*refs), "ns/ref")
		})
	}
}

// parkedGen is a generator whose streams block until release is closed,
// so a test can hold a cold profile build in flight.
type parkedGen struct {
	*Programs
	entered chan struct{} // closed by the first Stream call
	enter   sync.Once
	release chan struct{}
}

func (g *parkedGen) Stream(n int) Stream {
	g.enter.Do(func() { close(g.entered) })
	<-g.release
	return g.Programs.Stream(n)
}

// newParkedGen returns a parked two-node generator with a small program
// that touches its peer's pages, so its profile has classes.
func newParkedGen(name string) *parkedGen {
	p := NewPrograms(name, 2, 4, 1)
	for n := 0; n < 2; n++ {
		p.Program(n).WalkRW(p.Section(1-n), pageBytes(4), 32, 2, 3, 1)
	}
	return &parkedGen{Programs: p, entered: make(chan struct{}), release: make(chan struct{})}
}

// TestProfileOfBuildsOutsideLock holds one generator's cold build parked in
// its Stream call and requires that a warm lookup and a cold build of other
// generators both finish meanwhile, and that every concurrent caller of the
// parked generator gets the one *Profile its build produced.
func TestProfileOfBuildsOutsideLock(t *testing.T) {
	warm := newParkedGen("warm")
	close(warm.release)
	want := ProfileOf(warm)

	parked := newParkedGen("parked")
	const callers = 4
	got := make(chan *Profile, callers)
	for i := 0; i < callers; i++ {
		go func() { got <- ProfileOf(parked) }()
	}
	<-parked.entered

	done := make(chan struct{})
	go func() {
		defer close(done)
		if p := ProfileOf(warm); p != want {
			t.Error("warm lookup returned a different profile")
		}
		cold := newParkedGen("cold")
		close(cold.release)
		if p := ProfileOf(cold); p == nil || p.Name != "cold" {
			t.Errorf("cold build of another generator returned %+v", p)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("ProfileOf of other generators blocked behind a parked build")
	}
	select {
	case p := <-got:
		t.Fatalf("ProfileOf of the parked generator returned %p before its build was released", p)
	default:
	}

	close(parked.release)
	first := <-got
	if first == nil || first.Name != "parked" || len(first.PerNode[0].Classes) == 0 {
		t.Fatalf("parked profile = %+v", first)
	}
	for i := 1; i < callers; i++ {
		if p := <-got; p != first {
			t.Errorf("caller %d got profile %p, want the shared %p", i, p, first)
		}
	}
}
