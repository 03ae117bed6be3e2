package stats

import (
	"fmt"
	"strings"
)

// Chart renders the paper's stacked horizontal bars in plain text: each
// configuration becomes one bar whose segments are the time categories
// (left-hand figures, a bar as long as the configuration's execution time
// relative to the baseline) or miss classes (right-hand figures, every bar
// of length 1). Callers normalize the segments; Chart only draws them.
type Chart struct {
	// Title is printed above the bars.
	Title string
	// Width is the number of characters representing 1.00 (default 50).
	Width int
	rows  []chartRow
}

type chartRow struct {
	label string
	parts []float64 // segment lengths, 1.00 = Width glyphs
	total float64
}

// Time-category segment glyphs, in stacking order (matching the paper's
// legend): U-SH-MEM, K-BASE, K-OVERHD, U-INSTR, U-LC-MEM, SYNC.
var timeGlyphs = [NumTimeCats]byte{'#', 'B', '!', '=', '.', '~'}

// Miss-class segment glyphs: HOME, SCOMA, RAC, COLD, CONF/CAPC.
var missGlyphs = [NumMissCats]byte{'h', 's', 'r', 'c', 'X'}

// AddBar appends one configuration's bar. parts are its segment lengths
// in stacking order, in units of the chart's full width (1.00): one per
// time category for a time chart, one per miss class for a miss chart.
func (c *Chart) AddBar(label string, parts []float64) {
	row := chartRow{label: label, parts: parts}
	for _, f := range parts {
		row.total += f
	}
	c.rows = append(c.rows, row)
}

// TimeLegend returns the glyph legend for time bars.
func TimeLegend() string {
	var b strings.Builder
	for ct := TimeCat(0); ct < NumTimeCats; ct++ {
		if ct > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%c=%s", timeGlyphs[ct], ct)
	}
	return b.String()
}

// MissLegend returns the glyph legend for miss bars.
func MissLegend() string {
	var b strings.Builder
	for mc := MissCat(0); mc < NumMissCats; mc++ {
		if mc > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%c=%s", missGlyphs[mc], mc)
	}
	return b.String()
}

// String renders the chart.
func (c *Chart) String() string {
	width := c.Width
	if width <= 0 {
		width = 50
	}
	labelW := 0
	for _, r := range c.rows {
		if len(r.label) > labelW {
			labelW = len(r.label)
		}
	}
	glyphs := timeGlyphs[:]
	if len(c.rows) > 0 && len(c.rows[0].parts) == int(NumMissCats) {
		glyphs = missGlyphs[:]
	}

	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "%s\n", c.Title)
	}
	for _, r := range c.rows {
		fmt.Fprintf(&b, "%-*s |", labelW, r.label)
		emitted := 0
		target := 0
		acc := 0.0
		for i, f := range r.parts {
			acc += f
			target = int(acc*float64(width) + 0.5)
			for emitted < target {
				b.WriteByte(glyphs[i])
				emitted++
			}
		}
		fmt.Fprintf(&b, "| %.2f\n", r.total)
	}
	return b.String()
}
