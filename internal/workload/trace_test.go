package workload

import (
	"testing"

	"ascoma/internal/addr"
)

func TestRecordMatchesGenerator(t *testing.T) {
	g, err := New("stream", 16)
	if err != nil {
		t.Fatal(err)
	}
	tr := Record(g)
	if tr.Nodes() != g.Nodes() || tr.HomePagesPerNode() != g.HomePagesPerNode() ||
		tr.PrivatePagesPerNode() != g.PrivatePagesPerNode() {
		t.Error("trace metadata differs from generator")
	}
	// Replay must equal a fresh stream.
	for n := 0; n < g.Nodes(); n++ {
		want := drain(g.Stream(n))
		got := drain(tr.Stream(n))
		if len(want) != len(got) {
			t.Fatalf("node %d: %d vs %d refs", n, len(want), len(got))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("node %d ref %d: %v vs %v", n, i, want[i], got[i])
			}
		}
	}
	// Placement replay covers the same pages.
	orig := map[addr.Page]int{}
	g.Place(func(p addr.Page, h int) { orig[p] = h })
	replayed := map[addr.Page]int{}
	tr.Place(func(p addr.Page, h int) { replayed[p] = h })
	if len(orig) != len(replayed) {
		t.Fatalf("placement sizes differ: %d vs %d", len(orig), len(replayed))
	}
	for p, h := range orig {
		if replayed[p] != h {
			t.Fatalf("page %v home %d vs %d", p, replayed[p], h)
		}
	}
}
