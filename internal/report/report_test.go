package report

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strconv"
	"strings"
	"testing"

	"ascoma/internal/runcache"
)

var testOpts = Options{Scale: 16, Pressures: []int{10, 90}, Jobs: 4}

func TestFigureTableStructure(t *testing.T) {
	var buf bytes.Buffer
	if err := Figure(context.Background(), &buf, "uniform", testOpts); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"uniform: relative execution time",
		"where shared misses were satisfied",
		"CCNUMA", "S-COMA(10%)", "AS-COMA(90%)", "R-NUMA(90%)",
		"U-SH-MEM", "CONF/CAPC%",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("figure output missing %q", want)
		}
	}
	// The CC-NUMA baseline row must read 1.00.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "CCNUMA") {
			if !strings.Contains(line, "1.00") {
				t.Errorf("baseline row not normalized: %q", line)
			}
			break
		}
	}
}

func TestFigureCSV(t *testing.T) {
	var buf bytes.Buffer
	o := testOpts
	o.Format = "csv"
	if err := Figure(context.Background(), &buf, "stream", o); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// Two CSV tables: each 1 header + 9 rows (CCNUMA + 4 archs x 2 pressures).
	if len(lines) != 2*(1+9) {
		t.Fatalf("csv line count = %d, want 20", len(lines))
	}
	if !strings.HasPrefix(lines[0], "config,total,") {
		t.Errorf("csv header: %q", lines[0])
	}
	// Every data row of the first table parses.
	for _, l := range lines[1:10] {
		fields := strings.Split(l, ",")
		if len(fields) != 8 {
			t.Fatalf("csv row has %d fields: %q", len(fields), l)
		}
		if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
			t.Fatalf("total not numeric in %q", l)
		}
	}
}

func TestFigureChart(t *testing.T) {
	var buf bytes.Buffer
	o := testOpts
	o.Format = "chart"
	if err := Figure(context.Background(), &buf, "uniform", o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "|") || !strings.Contains(out, "#") {
		t.Error("chart output has no bars")
	}
	if !strings.Contains(out, "U-SH-MEM") {
		t.Error("chart legend missing")
	}
}

func TestFigureUnknownApp(t *testing.T) {
	var buf bytes.Buffer
	if err := Figure(context.Background(), &buf, "nonexistent", testOpts); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestTable5Structure(t *testing.T) {
	var buf bytes.Buffer
	if err := Table5(context.Background(), &buf, []string{"uniform", "stream"}, testOpts); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "ideal pressure") || !strings.Contains(out, "uniform") {
		t.Errorf("table 5 output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header + rule + 2 rows
		t.Errorf("table 5 has %d lines", len(lines))
	}
}

func TestTable6Structure(t *testing.T) {
	var buf bytes.Buffer
	if err := Table6(context.Background(), &buf, []string{"hotcold"}, testOpts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "relocated pages") {
		t.Errorf("table 6 output:\n%s", buf.String())
	}
}

// TestTableDispatch pins which table each number renders, by its first
// line: Tables 1-4 open with their title, 5 and 6 with their header row.
// Any other number is an error.
func TestTableDispatch(t *testing.T) {
	ctx := context.Background()
	for n, want := range map[int]string{
		1: "== Table 1: Remote Memory Overhead of Various Models ==",
		2: "== Table 2: Cost and Complexity of Various Models ==",
		3: "== Table 3: Cache and Network Characteristics ==",
		4: "== Table 4: Minimum Access Latency ==",
		5: "ideal pressure",
		6: "relocated pages",
	} {
		var buf bytes.Buffer
		if err := Table(ctx, &buf, n, []string{"uniform"}, testOpts); err != nil {
			t.Fatalf("table %d: %v", n, err)
		}
		if first, _, _ := strings.Cut(buf.String(), "\n"); !strings.Contains(first, want) {
			t.Errorf("table %d: first line %q, want it to contain %q", n, first, want)
		}
	}
	for _, n := range []int{0, 7, -1} {
		if err := Table(ctx, io.Discard, n, nil, testOpts); err == nil {
			t.Errorf("table %d: no error", n)
		}
	}
}

func TestSensitivityNodesStructure(t *testing.T) {
	var buf bytes.Buffer
	if err := SensitivityNodes(context.Background(), &buf, Options{Scale: 16}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, nodes := range []string{"4 ", "8 ", "16", "32"} {
		if !strings.Contains(out, nodes) {
			t.Errorf("scaling study missing %s-node row:\n%s", nodes, out)
		}
	}
}

func TestFigureApps(t *testing.T) {
	if got := FigureApps(2); len(got) != 3 || got[0] != "barnes" {
		t.Errorf("FigureApps(2) = %v", got)
	}
	if got := FigureApps(3); len(got) != 3 || got[2] != "radix" {
		t.Errorf("FigureApps(3) = %v", got)
	}
	if got := FigureApps(0); len(got) != 6 {
		t.Errorf("FigureApps(0) = %v", got)
	}
}

func TestParsePressures(t *testing.T) {
	got, err := ParsePressures("90, 10,50")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 10 || got[2] != 90 {
		t.Errorf("ParsePressures = %v", got)
	}
	for _, bad := range []string{"", "0", "100", "abc", "10,,20"} {
		if _, err := ParsePressures(bad); err == nil {
			t.Errorf("ParsePressures accepted %q", bad)
		}
	}
}

func TestParsePressuresDeduplicates(t *testing.T) {
	// Duplicate pressures used to schedule the same grid cell twice: two
	// goroutines simulated redundantly and raced into one map entry.
	got, err := ParsePressures("50,50, 10,50,10")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 10 || got[1] != 50 {
		t.Errorf("ParsePressures = %v, want [10 50]", got)
	}
}

func TestOptionsDeduplicatePressures(t *testing.T) {
	// Directly-set Options.Pressures are normalized too, without mutating
	// the caller's slice.
	in := []int{90, 10, 90}
	o := Options{Pressures: in}.withDefaults()
	if len(o.Pressures) != 2 || o.Pressures[0] != 10 || o.Pressures[1] != 90 {
		t.Errorf("normalized pressures = %v, want [10 90]", o.Pressures)
	}
	if in[0] != 90 || in[1] != 10 || in[2] != 90 {
		t.Errorf("caller's slice mutated: %v", in)
	}
}

func TestValidFigure(t *testing.T) {
	for fig, want := range map[int]bool{0: true, 2: true, 3: true, 1: false, 7: false, -1: false} {
		if got := ValidFigure(fig); got != want {
			t.Errorf("ValidFigure(%d) = %v, want %v", fig, got, want)
		}
	}
}

func TestFigureCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	err := Figure(ctx, &buf, "uniform", testOpts)
	if err == nil {
		t.Fatal("Figure with cancelled context succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error does not wrap context.Canceled: %v", err)
	}
}

// errWriter fails after n bytes, modeling a full disk or closed pipe.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	if len(p) > w.n {
		p = p[:w.n]
	}
	w.n -= len(p)
	return len(p), nil
}

func TestFigureWriteErrorsPropagate(t *testing.T) {
	for _, format := range []string{"table", "csv", "chart"} {
		o := testOpts
		o.Format = format
		if err := Figure(context.Background(), &errWriter{n: 10}, "uniform", o); err == nil {
			t.Errorf("%s: write error swallowed", format)
		}
	}
	if err := Table6(context.Background(), &errWriter{}, []string{"stream"}, testOpts); err == nil {
		t.Error("Table6: write error swallowed")
	}
}

func TestSharedRunnerCachesAcrossCalls(t *testing.T) {
	cache, err := runcache.New(64, "")
	if err != nil {
		t.Fatal(err)
	}
	o := testOpts
	o.Runner = &runcache.Runner{Cache: cache, Jobs: 4}
	var a, b bytes.Buffer
	if err := Figure(context.Background(), &a, "uniform", o); err != nil {
		t.Fatal(err)
	}
	simsAfterFirst := cache.Stats().Sims
	if simsAfterFirst == 0 {
		t.Fatal("first render hit an empty cache")
	}
	if err := Figure(context.Background(), &b, "uniform", o); err != nil {
		t.Fatal(err)
	}
	if sims := cache.Stats().Sims; sims != simsAfterFirst {
		t.Errorf("second render simulated %d new runs, want 0", sims-simsAfterFirst)
	}
	if a.String() != b.String() {
		t.Error("cached render differs from uncached render")
	}
}

func TestTablesParallelPreserveOrder(t *testing.T) {
	// Table5/Table6 fan out across apps; rows must keep the caller's order.
	apps := []string{"stream", "uniform", "hotcold"}
	var buf bytes.Buffer
	if err := Table6(context.Background(), &buf, apps, testOpts); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !(strings.Index(out, "stream") < strings.Index(out, "uniform") &&
		strings.Index(out, "uniform") < strings.Index(out, "hotcold")) {
		t.Errorf("rows out of order:\n%s", out)
	}
}

func TestSensitivityThresholdStructure(t *testing.T) {
	var buf bytes.Buffer
	if err := SensitivityThreshold(context.Background(), &buf, Options{Scale: 16}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"threshold", "R-NUMA rel", "AS-COMA rel", "256"} {
		if !strings.Contains(out, want) {
			t.Errorf("threshold study missing %q:\n%s", want, out)
		}
	}
}

func TestSensitivityRACStructure(t *testing.T) {
	var buf bytes.Buffer
	if err := SensitivityRAC(context.Background(), &buf, Options{Scale: 16}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "RAC entries") || !strings.Contains(out, "16") {
		t.Errorf("RAC study output:\n%s", out)
	}
}

func TestRenderCSVMode(t *testing.T) {
	var buf bytes.Buffer
	if err := Table6(context.Background(), &buf, []string{"stream"}, Options{Scale: 16, Format: "csv"}); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "program,") {
		t.Errorf("csv output: %q", buf.String())
	}
}

func TestTableErrorsPropagate(t *testing.T) {
	var buf bytes.Buffer
	if err := Table5(context.Background(), &buf, []string{"bogus"}, testOpts); err == nil {
		t.Error("Table5 accepted unknown app")
	}
	if err := Table6(context.Background(), &buf, []string{"bogus"}, testOpts); err == nil {
		t.Error("Table6 accepted unknown app")
	}
}
