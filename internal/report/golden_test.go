package report

// TestFigureDigests pins the bytes of every figure format — the table, the
// CSV, the text chart and both SVG documents — for one small grid. Any
// change to how a figure is run, assembled or rendered that moves a single
// byte fails it.
//
// Regenerate testdata/figure_digests.json after an *intentional* change to
// a figure format with:
//
//	go test ./internal/report -run TestFigureDigests -update-figures

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"ascoma/internal/runcache"
)

var updateFigures = flag.Bool("update-figures", false, "rewrite testdata/figure_digests.json from the current renderers")

const figureDigestPath = "testdata/figure_digests.json"

func TestFigureDigests(t *testing.T) {
	ctx := context.Background()
	cache, err := runcache.New(0, "")
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Scale: 32, Pressures: []int{10, 90}, Runner: &runcache.Runner{Cache: cache, Jobs: 2}}
	docs := map[string][]byte{}
	for _, format := range []string{"table", "csv", "chart"} {
		var buf bytes.Buffer
		fo := o
		fo.Format = format
		if err := Figure(ctx, &buf, "uniform", fo); err != nil {
			t.Fatal(err)
		}
		docs[format] = buf.Bytes()
	}
	var timeSVG, missSVG bytes.Buffer
	if err := FigureSVG(ctx, &timeSVG, &missSVG, "uniform", o); err != nil {
		t.Fatal(err)
	}
	docs["svg-time"], docs["svg-misses"] = timeSVG.Bytes(), missSVG.Bytes()

	got := map[string]string{}
	for name, doc := range docs {
		got[name] = fmt.Sprintf("%x", sha256.Sum256(doc))
	}
	if *updateFigures {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(figureDigestPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	blob, err := os.ReadFile(figureDigestPath)
	if err != nil {
		t.Fatalf("missing digest file (run with -update-figures to create): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	for name, g := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: not in digest file (run -update-figures)", name)
		} else if w != g {
			t.Errorf("%s: digest %s, want %s", name, g, w)
		}
	}
	if len(want) != len(got) {
		t.Errorf("digest file has %d documents, the test renders %d", len(want), len(got))
	}
}
