package report

import (
	"context"
	"fmt"
	"io"
	"strings"

	"ascoma/internal/stats"
)

// SVG rendering of the Figure 2/3 panels: horizontal stacked bars, one per
// configuration, in the paper's layout. Pure stdlib — the SVG is assembled
// as XML text.

// Category fill colors, chosen for print contrast (time categories in the
// paper's stacking order, then miss classes).
var timeColors = [stats.NumTimeCats]string{
	"#4878a8", // U-SH-MEM
	"#333333", // K-BASE
	"#c03028", // K-OVERHD
	"#e8c840", // U-INSTR
	"#78b058", // U-LC-MEM
	"#9058a8", // SYNC
}

var missColors = [stats.NumMissCats]string{
	"#78b058", // HOME
	"#4878a8", // SCOMA
	"#e8c840", // RAC
	"#9058a8", // COLD
	"#c03028", // CONF/CAPC
}

const (
	svgBarH    = 18
	svgBarGap  = 6
	svgLabelW  = 150
	svgUnitW   = 320 // pixels per 1.00 relative time
	svgPad     = 12
	svgLegendH = 28
)

type svgBar struct {
	label string
	parts []float64 // absolute widths in "relative time" units
}

// writeSVG renders bars with the given palette and category names.
func writeSVG(w io.Writer, title string, bars []svgBar, colors []string, names []string) error {
	maxTotal := 1.0
	for _, b := range bars {
		total := 0.0
		for _, p := range b.parts {
			total += p
		}
		if total > maxTotal {
			maxTotal = total
		}
	}
	width := svgLabelW + int(float64(svgUnitW)*maxTotal) + 80 + 2*svgPad
	height := 2*svgPad + svgLegendH + 22 + len(bars)*(svgBarH+svgBarGap)

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif" font-size="12">`+"\n", width, height)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`+"\n", width, height)
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-weight="bold">%s</text>`+"\n", svgPad, svgPad+10, xmlEscape(title))

	// Legend.
	x := svgPad
	ly := svgPad + 22
	for i, name := range names {
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="10" height="10" fill="%s"/>`+"\n", x, ly, colors[i])
		fmt.Fprintf(&b, `<text x="%d" y="%d">%s</text>`+"\n", x+14, ly+9, xmlEscape(name))
		x += 14 + 8*len(name) + 16
	}

	y := svgPad + svgLegendH + 22
	for _, bar := range bars {
		fmt.Fprintf(&b, `<text x="%d" y="%d" text-anchor="end">%s</text>`+"\n",
			svgLabelW-6, y+svgBarH-5, xmlEscape(bar.label))
		bx := float64(svgLabelW)
		total := 0.0
		for i, p := range bar.parts {
			total += p
			wpx := p * svgUnitW
			if wpx <= 0 {
				continue
			}
			fmt.Fprintf(&b, `<rect x="%.1f" y="%d" width="%.1f" height="%d" fill="%s"/>`+"\n",
				bx, y, wpx, svgBarH, colors[i])
			bx += wpx
		}
		fmt.Fprintf(&b, `<text x="%.1f" y="%d">%.2f</text>`+"\n", bx+5, y+svgBarH-5, total)
		y += svgBarH + svgBarGap
	}
	// Reference line at 1.00.
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#888" stroke-dasharray="4,3"/>`+"\n",
		svgLabelW+svgUnitW, svgPad+svgLegendH+16, svgLabelW+svgUnitW, y)
	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func xmlEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

// FigureSVG renders one application's panel as two SVG documents: the
// relative execution-time chart (left) and the miss-classification chart
// (right), written to timeW and missW.
func FigureSVG(ctx context.Context, timeW, missW io.Writer, app string, o Options) error {
	o = o.withDefaults()
	rows, err := figureRows(ctx, app, o)
	if err != nil {
		return err
	}
	timeBars := make([]svgBar, len(rows))
	missBars := make([]svgBar, len(rows))
	for i := range rows {
		r := &rows[i]
		shares := r.missShares()
		timeBars[i] = svgBar{label: r.label, parts: r.time[:]}
		missBars[i] = svgBar{label: r.label, parts: shares[:]}
	}

	timeNames := make([]string, stats.NumTimeCats)
	for c := stats.TimeCat(0); c < stats.NumTimeCats; c++ {
		timeNames[c] = c.String()
	}
	missNames := make([]string, stats.NumMissCats)
	for c := stats.MissCat(0); c < stats.NumMissCats; c++ {
		missNames[c] = c.String()
	}
	if err := writeSVG(timeW, app+": execution time relative to CC-NUMA", timeBars, timeColors[:], timeNames); err != nil {
		return err
	}
	return writeSVG(missW, app+": where shared misses were satisfied", missBars, missColors[:], missNames)
}
