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
	// Tiers applies a tiered-memory configuration (ascoma.Config.Tiers) to
	// every simulated cell, so any figure or table can be rendered under
	// asymmetric memory. Nil keeps the default one tier.
	Tiers []ascoma.TierSpec
	// PagePolicy is the row-buffer page policy for every simulated cell
	// (ascoma.Config.PagePolicy; "" = none).
	PagePolicy string
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

type runKey struct {
	arch     ascoma.Arch
	pressure int
}

// gridArchs are the pressure-sensitive architectures of a figure grid;
// the CC-NUMA baseline runs once at 50% besides them.
var gridArchs = []ascoma.Arch{ascoma.SCOMA, ascoma.ASCOMA, ascoma.VCNUMA, ascoma.RNUMA}

// runGrid executes the architecture x pressure grid for one application
// through the shared Runner, reporting each finished cell to o.Progress.
// CC-NUMA runs once (it is pressure-insensitive). The first failure
// cancels every outstanding cell.
func runGrid(ctx context.Context, app string, o Options) (map[runKey]*ascoma.Result, error) {
	keys := []runKey{{ascoma.CCNUMA, 50}}
	for _, a := range gridArchs {
		for _, p := range o.Pressures {
			keys = append(keys, runKey{a, p})
		}
	}
	cells := make([]ascoma.Config, len(keys))
	for i, k := range keys {
		cells[i] = ascoma.Config{
			Arch: k.arch, Workload: app, Pressure: k.pressure, Scale: o.Scale,
			Tiers: o.Tiers, PagePolicy: o.PagePolicy,
		}
	}
	results := make(map[runKey]*ascoma.Result, len(keys))
	_, err := o.Runner.RunAll(ctx, cells, func(i int, res *ascoma.Result) {
		results[keys[i]] = res
		if o.Progress != nil {
			o.Progress(len(results), len(keys))
		}
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// gridRows iterates the grid in the paper's presentation order.
func gridRows(results map[runKey]*ascoma.Result, pressures []int, f func(label string, r *ascoma.Result)) {
	f("CCNUMA", results[runKey{ascoma.CCNUMA, 50}])
	for _, a := range gridArchs {
		for _, p := range pressures {
			if r := results[runKey{a, p}]; r != nil {
				f(fmt.Sprintf("%v(%d%%)", a, p), r)
			}
		}
	}
}

// Figure renders one application's Figure 2/3 panel (left: relative
// execution-time breakdown; right: miss classification).
func Figure(ctx context.Context, w io.Writer, app string, o Options) error {
	o = o.withDefaults()
	results, err := runGrid(ctx, app, o)
	if err != nil {
		return err
	}
	base := results[runKey{ascoma.CCNUMA, 50}]
	if base == nil {
		return fmt.Errorf("report: no baseline result for %s", app)
	}
	if o.Format == "chart" {
		return figureChart(w, app, results, base, o)
	}

	left := &stats.Table{Header: []string{"config", "total", "U-SH-MEM", "K-BASE", "K-OVERHD", "U-INSTR", "U-LC-MEM", "SYNC"}}
	right := &stats.Table{Header: []string{"config", "misses", "HOME%", "SCOMA%", "RAC%", "COLD%", "CONF/CAPC%"}}
	gridRows(results, o.Pressures, func(label string, r *ascoma.Result) {
		t := r.SumTime()
		var sum int64
		for _, v := range t {
			sum += v
		}
		rel := float64(r.ExecTime) / float64(base.ExecTime)
		frac := func(c stats.TimeCat) string {
			if sum == 0 {
				return f2(0)
			}
			return f2(float64(t[c]) / float64(sum) * rel)
		}
		left.AddRow(label, f2(rel), frac(stats.UShMem), frac(stats.KBase),
			frac(stats.KOverhead), frac(stats.UInstr), frac(stats.ULcMem), frac(stats.Sync))
		m := r.SumMisses()
		var msum int64
		for _, v := range m {
			msum += v
		}
		right.AddRow(label, msum,
			f1(pct(m[stats.Home], msum)), f1(pct(m[stats.SComa], msum)),
			f1(pct(m[stats.RAC], msum)), f1(pct(m[stats.Cold], msum)),
			f1(pct(m[stats.ConfCapc], msum)))
	})

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

// figureChart renders the paper-style stacked bars.
func figureChart(w io.Writer, app string, results map[runKey]*ascoma.Result, base *ascoma.Result, o Options) error {
	left := &stats.Chart{Title: fmt.Sprintf("== %s: relative execution time (|%s|) ==", app, stats.TimeLegend())}
	right := &stats.Chart{Title: fmt.Sprintf("-- %s: where shared misses were satisfied (|%s|) --", app, stats.MissLegend())}
	gridRows(results, o.Pressures, func(label string, r *ascoma.Result) {
		t := r.SumTime()
		var sum int64
		for _, v := range t {
			sum += v
		}
		rel := float64(r.ExecTime) / float64(base.ExecTime)
		scaled := t
		if sum > 0 {
			for i := range scaled {
				scaled[i] = int64(float64(t[i]) / float64(sum) * rel * 1e6)
			}
		}
		left.AddTimeBar(label, scaled, 1e6)
		right.AddMissBar(label, r.SumMisses())
	})
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
