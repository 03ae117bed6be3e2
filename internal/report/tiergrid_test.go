package report

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"ascoma/internal/runcache"
)

func TestTierGridStructure(t *testing.T) {
	var buf bytes.Buffer
	o := Options{Scale: 16, Pressures: []int{70}, Jobs: 4}
	if err := TierGrid(context.Background(), &buf, "uniform", []int{50}, []int{4}, o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"uniform: tiered-memory grid at 70% pressure",
		"policy=open",
		"flat (cycles)",
		"fast 50% / slow x4",
		"CC-NUMA", "AS-COMA", "MIG-NUMA",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("tier grid output missing %q\n%s", want, out)
		}
	}
}

func TestTierGridDeterministic(t *testing.T) {
	o := Options{Scale: 16, Pressures: []int{70}, Jobs: 4,
		Runner: &runcache.Runner{Jobs: 4}, PagePolicy: "hybrid"}
	var a, b bytes.Buffer
	if err := TierGrid(context.Background(), &a, "uniform", []int{25}, []int{8}, o); err != nil {
		t.Fatal(err)
	}
	if err := TierGrid(context.Background(), &b, "uniform", []int{25}, []int{8}, o); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("tier grid render is not deterministic")
	}
	if !strings.Contains(a.String(), "policy=hybrid") {
		t.Error("requested page policy not echoed in the header")
	}
}

func TestTierGridRejectsBadAxes(t *testing.T) {
	var buf bytes.Buffer
	o := Options{Scale: 16, Pressures: []int{70}}
	if err := TierGrid(context.Background(), &buf, "uniform", []int{0}, nil, o); err == nil {
		t.Error("fast share 0% accepted")
	}
	if err := TierGrid(context.Background(), &buf, "uniform", nil, []int{0}, o); err == nil {
		t.Error("asymmetry 0 accepted")
	}
}

func TestFigureUnderTiers(t *testing.T) {
	// Options.Tiers threads into every figure cell: a tiered render must
	// succeed and differ from the flat one.
	flat := Options{Scale: 16, Pressures: []int{70}, Jobs: 4}
	tiered := flat
	tiered.Tiers = TierSpecsFor(50, 4)
	tiered.PagePolicy = "open"
	var a, b bytes.Buffer
	if err := Figure(context.Background(), &a, "uniform", flat); err != nil {
		t.Fatal(err)
	}
	if err := Figure(context.Background(), &b, "uniform", tiered); err != nil {
		t.Fatal(err)
	}
	if a.String() == b.String() {
		t.Error("tiered figure identical to flat figure")
	}
}

func TestTierGridDedupesAxes(t *testing.T) {
	var buf bytes.Buffer
	var done, total int
	o := Options{Scale: 16, Pressures: []int{70}, Jobs: 4,
		Progress: func(d, n int) { done, total = d, n }}
	if err := TierGrid(context.Background(), &buf, "uniform", []int{25, 25}, []int{4, 4}, o); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "fast 25% / slow x4"); n != 1 {
		t.Errorf("duplicate axes printed the row %d times, want once\n%s", n, buf.String())
	}
	// One flat baseline plus one tiered cell per architecture.
	if done != total || total != 6*2 {
		t.Errorf("progress ended at %d of %d cells, want 12 of 12", done, total)
	}
}
