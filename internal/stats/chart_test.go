package stats

import (
	"strings"
	"testing"
)

// timeBar returns a time chart's segments with one category set.
func timeBar(c TimeCat, v float64) []float64 {
	parts := make([]float64, NumTimeCats)
	parts[c] = v
	return parts
}

func TestTimeBarLengthTracksRelativeTime(t *testing.T) {
	c := &Chart{Width: 40}
	c.AddBar("base", timeBar(UShMem, 1))
	c.AddBar("slow", timeBar(UShMem, 2))
	out := c.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines", len(lines))
	}
	baseHashes := strings.Count(lines[0], "#")
	slowHashes := strings.Count(lines[1], "#")
	if baseHashes != 40 {
		t.Errorf("baseline bar %d glyphs, want 40", baseHashes)
	}
	if slowHashes != 80 {
		t.Errorf("2x bar %d glyphs, want 80", slowHashes)
	}
	if !strings.Contains(lines[0], "1.00") || !strings.Contains(lines[1], "2.00") {
		t.Error("totals missing")
	}
}

func TestTimeBarSegments(t *testing.T) {
	c := &Chart{Width: 10}
	parts := make([]float64, NumTimeCats)
	parts[UShMem] = 0.5
	parts[KOverhead] = 0.3
	parts[Sync] = 0.2
	c.AddBar("mix", parts)
	out := c.String()
	if strings.Count(out, "#") != 5 || strings.Count(out, "!") != 3 || strings.Count(out, "~") != 2 {
		t.Errorf("segment mix wrong: %q", out)
	}
	// Stacking order: stall before overhead before sync.
	if strings.Index(out, "#") > strings.Index(out, "!") {
		t.Error("segments out of stacking order")
	}
}

// TestMissBarNormalized: a bar with one segment per miss class draws miss
// glyphs, and a mix of fractions fills the full width.
func TestMissBarNormalized(t *testing.T) {
	c := &Chart{Width: 20}
	even := make([]float64, NumMissCats)
	even[Home], even[ConfCapc] = 0.5, 0.5
	c.AddBar("even", even)
	all := make([]float64, NumMissCats)
	all[Home] = 1
	c.AddBar("huge", all)
	out := c.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	bar := func(line string) string {
		i, j := strings.Index(line, "|"), strings.LastIndex(line, "|")
		return line[i+1 : j]
	}
	if len(bar(lines[0])) != 20 || strings.Count(bar(lines[0]), "h") != 10 || strings.Count(bar(lines[0]), "X") != 10 {
		t.Errorf("even bar wrong: %q", lines[0])
	}
	if strings.Count(bar(lines[1]), "h") != 20 {
		t.Errorf("huge bar not full width: %q", lines[1])
	}
}

// TestChartZeroBase: an all-zero bar (a zero baseline, or a row with no
// misses) draws no glyphs and totals 0.00.
func TestChartZeroBase(t *testing.T) {
	c := &Chart{}
	c.AddBar("z", make([]float64, NumTimeCats))
	if got := c.String(); got != "z || 0.00\n" {
		t.Errorf("zero bar rendered %q", got)
	}
}

func TestChartTitleAndLegends(t *testing.T) {
	c := &Chart{Title: "hello"}
	c.AddBar("x", make([]float64, NumTimeCats))
	if !strings.HasPrefix(c.String(), "hello\n") {
		t.Error("title missing")
	}
	if !strings.Contains(TimeLegend(), "U-SH-MEM") || !strings.Contains(TimeLegend(), "#") {
		t.Error("time legend incomplete")
	}
	if !strings.Contains(MissLegend(), "CONF/CAPC") {
		t.Error("miss legend incomplete")
	}
}

func TestChartLabelAlignment(t *testing.T) {
	c := &Chart{Width: 4}
	c.AddBar("short", timeBar(UShMem, 1))
	c.AddBar("a-much-longer-label", timeBar(UShMem, 1))
	lines := strings.Split(strings.TrimRight(c.String(), "\n"), "\n")
	if strings.Index(lines[0], "|") != strings.Index(lines[1], "|") {
		t.Error("bars not aligned")
	}
}
