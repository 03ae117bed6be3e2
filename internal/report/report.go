// Package report generates the paper's evaluation artifacts — the Figure
// 2/3 grids (relative execution time and miss classification), Tables 5
// and 6, and the extension studies (threshold/RAC/machine-size
// sensitivity) — as text tables, paper-style stacked bar charts, or CSV.
// The cmd/sweep tool is a thin flag wrapper around this package.
//
// All simulations flow through a shared runcache.Runner: one semaphore
// bounds parallelism, one cache memoizes identical cells, and one context
// tree cancels outstanding work the moment anything fails.
package report

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strconv"

	"ascoma"
	"ascoma/internal/runcache"
	"ascoma/internal/stats"
	"ascoma/internal/workload"
)

// Options configures report generation.
type Options struct {
	// Scale is the problem-size divisor (1 = paper scale).
	Scale int
	// Pressures is the memory-pressure grid (default DefaultPressures).
	Pressures []int
	// Format selects the rendering: "table" (default), "chart", "csv".
	Format string
	// Jobs bounds parallel simulations (default NumCPU). Ignored when
	// Runner is set — the Runner's own limit governs.
	Jobs int
	// Runner executes the simulations (nil = a fresh uncached Runner
	// bounded by Jobs). Passing a shared Runner lets callers reuse its
	// result cache across figures, tables, and server requests.
	Runner *runcache.Runner
	// Progress, when non-nil, is invoked after each grid cell completes
	// with the running count of finished cells and the grid total. Calls
	// come from Runner.RunAll's workers, one at a time, so the callback
	// must be cheap and need not be re-entrant.
	// The async jobs layer streams these as figure-render progress events.
	Progress func(done, total int)
}

func (o Options) withDefaults() Options {
	if o.Scale < 1 {
		o.Scale = 1
	}
	o.Pressures = PressureAxis(o.Pressures)
	if o.Format == "" {
		o.Format = "table"
	}
	if o.Jobs < 1 {
		o.Jobs = runtime.NumCPU()
	}
	if o.Runner == nil {
		o.Runner = &runcache.Runner{Jobs: o.Jobs}
	}
	return o
}

// DefaultPressures is the memory-pressure axis of every grid that is not
// given one.
var DefaultPressures = []int{10, 30, 50, 70, 90}

// DedupeAxis returns a sorted copy of a grid axis with duplicates
// removed, so a grid never schedules (and a table never prints) the same
// cell twice.
func DedupeAxis(xs []int) []int {
	out := slices.Clone(xs)
	slices.Sort(out)
	return slices.Compact(out)
}

// PressureAxis returns the pressure axis a grid over ps runs:
// DefaultPressures when ps is empty, else ps de-duplicated. The jobs
// layer counts a spec's cells with it before admission.
func PressureAxis(ps []int) []int {
	if len(ps) == 0 {
		ps = DefaultPressures
	}
	return DedupeAxis(ps)
}

// FigureApps returns the applications of the given figure (2 or 3); any
// other value returns all six in paper order. Callers exposing a figure
// flag should validate it with ValidFigure first.
func FigureApps(fig int) []string {
	switch fig {
	case 2:
		return []string{"barnes", "em3d", "fft"}
	case 3:
		return []string{"lu", "ocean", "radix"}
	}
	return []string{"barnes", "em3d", "fft", "lu", "ocean", "radix"}
}

// ValidFigure reports whether fig names a figure grid (2 or 3) or the
// both-figures sentinel 0.
func ValidFigure(fig int) bool { return fig == 0 || fig == 2 || fig == 3 }

// FigureCells returns one application's figure grid in presentation
// order: the CC-NUMA baseline once at 50% (it is pressure-insensitive),
// then S-COMA, AS-COMA, VC-NUMA and R-NUMA at every pressure of
// PressureAxis(pressures). It is the one definition of the grid: Figure
// and FigureSVG run it, and the jobs layer expands and counts grid and
// figure jobs with it.
func FigureCells(app string, scale int, pressures []int) []ascoma.Config {
	ps := PressureAxis(pressures)
	archs := []ascoma.Arch{ascoma.SCOMA, ascoma.ASCOMA, ascoma.VCNUMA, ascoma.RNUMA}
	cells := make([]ascoma.Config, 0, 1+len(archs)*len(ps))
	cells = append(cells, ascoma.Config{Arch: ascoma.CCNUMA, Workload: app, Pressure: 50, Scale: scale})
	for _, a := range archs {
		for _, p := range ps {
			cells = append(cells, ascoma.Config{Arch: a, Workload: app, Pressure: p, Scale: scale})
		}
	}
	return cells
}

// figureRow is one bar of a figure panel: the model the table, CSV, text
// chart and SVG renderers all read.
type figureRow struct {
	label  string
	rel    float64                    // execution time relative to the baseline
	time   [stats.NumTimeCats]float64 // each category's share of rel; they sum to rel
	misses [stats.NumMissCats]int64   // shared misses by where they were satisfied
}

func (r *figureRow) missTotal() int64 {
	var sum int64
	for _, v := range r.misses {
		sum += v
	}
	return sum
}

// missShares returns each class's fraction of the row's misses (all 0
// when there are none).
func (r *figureRow) missShares() [stats.NumMissCats]float64 {
	var f [stats.NumMissCats]float64
	if sum := r.missTotal(); sum > 0 {
		for c, v := range r.misses {
			f[c] = float64(v) / float64(sum)
		}
	}
	return f
}

// figureRows runs app's figure grid through the shared Runner, reporting
// each finished cell to o.Progress, and returns its rows in presentation
// order. The first failure cancels every outstanding cell.
func figureRows(ctx context.Context, app string, o Options) ([]figureRow, error) {
	cells := FigureCells(app, o.Scale, o.Pressures)
	done := 0
	results, err := o.Runner.RunAll(ctx, cells, func(int, *ascoma.Result) {
		done++
		if o.Progress != nil {
			o.Progress(done, len(cells))
		}
	})
	if err != nil {
		return nil, err
	}
	base := results[0].ExecTime
	rows := make([]figureRow, len(results))
	for i, res := range results {
		r := &rows[i]
		r.label = "CCNUMA"
		if i > 0 {
			r.label = fmt.Sprintf("%v(%d%%)", cells[i].Arch, cells[i].Pressure)
		}
		r.rel = float64(res.ExecTime) / float64(base)
		t := res.SumTime()
		var sum int64
		for _, v := range t {
			sum += v
		}
		if sum > 0 {
			for c, v := range t {
				r.time[c] = float64(v) / float64(sum) * r.rel
			}
		}
		r.misses = res.SumMisses()
	}
	return rows, nil
}

// Figure renders one application's Figure 2/3 panel (left: relative
// execution-time breakdown; right: miss classification).
func Figure(ctx context.Context, w io.Writer, app string, o Options) error {
	o = o.withDefaults()
	rows, err := figureRows(ctx, app, o)
	if err != nil {
		return err
	}
	if o.Format == "chart" {
		return figureChart(w, app, rows)
	}

	left := &stats.Table{Header: []string{"config", "total", "U-SH-MEM", "K-BASE", "K-OVERHD", "U-INSTR", "U-LC-MEM", "SYNC"}}
	right := &stats.Table{Header: []string{"config", "misses", "HOME%", "SCOMA%", "RAC%", "COLD%", "CONF/CAPC%"}}
	for _, r := range rows {
		cols := []any{r.label, f2(r.rel)}
		for _, f := range r.time {
			cols = append(cols, f2(f))
		}
		left.AddRow(cols...)
		sum := r.missTotal()
		cols = []any{r.label, sum}
		for _, v := range r.misses {
			cols = append(cols, f1(pct(v, sum)))
		}
		right.AddRow(cols...)
	}

	if o.Format == "csv" {
		return writeAll(w, left.CSV(), right.CSV())
	}
	return writeAll(w,
		fmt.Sprintf("== %s: relative execution time (CC-NUMA = 1.00) ==\n", app),
		left.String(),
		fmt.Sprintf("-- %s: where shared misses were satisfied --\n", app),
		right.String(),
		"\n")
}

// figureChart renders the paper-style stacked bars. A time segment is
// drawn at a whole number of millionths of the baseline.
func figureChart(w io.Writer, app string, rows []figureRow) error {
	left := &stats.Chart{Title: fmt.Sprintf("== %s: relative execution time (|%s|) ==", app, stats.TimeLegend())}
	right := &stats.Chart{Title: fmt.Sprintf("-- %s: where shared misses were satisfied (|%s|) --", app, stats.MissLegend())}
	for _, r := range rows {
		var bar [stats.NumTimeCats]float64
		for c, f := range r.time {
			bar[c] = math.Trunc(f*1e6) / 1e6
		}
		left.AddBar(r.label, bar[:])
		shares := r.missShares()
		right.AddBar(r.label, shares[:])
	}
	return writeAll(w, left.String(), "\n", right.String(), "\n")
}

// Table5 renders the workload inventory (programs, home pages, maximum
// remote pages, ideal memory pressure). Applications run in parallel
// through the shared Runner; rows keep the caller's order.
func Table5(ctx context.Context, w io.Writer, apps []string, o Options) error {
	o = o.withDefaults()
	gens := make([]workload.Generator, len(apps))
	cells := make([]ascoma.Config, len(apps))
	for i, a := range apps {
		gen, err := workload.New(a, o.Scale)
		if err != nil {
			return err
		}
		gens[i] = gen
		cells[i] = ascoma.Config{Arch: ascoma.SCOMA, Workload: a, Pressure: 5, Scale: o.Scale}
	}
	results, err := o.Runner.RunAll(ctx, cells, nil)
	if err != nil {
		return fmt.Errorf("table 5: %w", err)
	}
	t := &stats.Table{Header: []string{"program", "nodes", "home pages/node", "max remote pages", "ideal pressure"}}
	for i, res := range results {
		var maxRemote int64
		for n := range res.Nodes {
			maxRemote = max(maxRemote, res.Nodes[n].RemotePagesSeen)
		}
		gen := gens[i]
		resident := gen.HomePagesPerNode() + gen.PrivatePagesPerNode()
		ideal := 100 * float64(resident) / float64(resident+int(maxRemote))
		t.AddRow(apps[i], gen.Nodes(), gen.HomePagesPerNode(), maxRemote, fmt.Sprintf("%.0f%%", ideal))
	}
	return render(w, t, o)
}

// Table6 renders the remote-vs-relocated page counts, with applications in
// parallel through the shared Runner.
func Table6(ctx context.Context, w io.Writer, apps []string, o Options) error {
	o = o.withDefaults()
	cells := make([]ascoma.Config, len(apps))
	for i, a := range apps {
		cells[i] = ascoma.Config{Arch: ascoma.CCNUMA, Workload: a, Pressure: 10, Scale: o.Scale}
	}
	results, err := o.Runner.RunAll(ctx, cells, nil)
	if err != nil {
		return fmt.Errorf("table 6: %w", err)
	}
	t := &stats.Table{Header: []string{"program", "total remote pages", "relocated pages", "% relocated"}}
	for i, res := range results {
		pctRel := 0.0
		if res.RemotePages > 0 {
			pctRel = 100 * float64(res.RelocatedPages) / float64(res.RemotePages)
		}
		t.AddRow(apps[i], res.RemotePages, res.RelocatedPages, f1(pctRel))
	}
	return render(w, t, o)
}

func render(w io.Writer, t *stats.Table, o Options) error {
	if o.Format == "csv" {
		return writeAll(w, t.CSV())
	}
	return writeAll(w, t.String())
}

// writeAll writes every part, failing on the first short or errored write
// so a full disk or closed pipe is reported instead of swallowed.
func writeAll(w io.Writer, parts ...string) error {
	for _, p := range parts {
		if _, err := io.WriteString(w, p); err != nil {
			return fmt.Errorf("report: write: %w", err)
		}
	}
	return nil
}

// ParsePressures converts "10,30,90" into a sorted, deduplicated,
// validated slice.
func ParsePressures(s string) ([]int, error) {
	var out []int
	start := 0
	for i := 0; i <= len(s); i++ {
		if i < len(s) && s[i] != ',' {
			continue
		}
		field := s[start:i]
		start = i + 1
		v, err := strconv.Atoi(trimSpace(field))
		if err != nil || v < 1 || v > 99 {
			return nil, fmt.Errorf("report: bad pressure %q", field)
		}
		out = append(out, v)
	}
	return DedupeAxis(out), nil
}

func trimSpace(s string) string {
	for len(s) > 0 && (s[0] == ' ' || s[0] == '\t') {
		s = s[1:]
	}
	for len(s) > 0 && (s[len(s)-1] == ' ' || s[len(s)-1] == '\t') {
		s = s[:len(s)-1]
	}
	return s
}

func pct(v, sum int64) float64 {
	if sum == 0 {
		return 0
	}
	return 100 * float64(v) / float64(sum)
}

func f1(v float64) string { return strconv.FormatFloat(v, 'f', 1, 64) }
func f2(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }
