// Command sweep regenerates the paper's evaluation: the architecture ×
// memory-pressure grids behind Figures 2 and 3 (relative execution time and
// where misses were satisfied, per application), Tables 5 and 6 (workload
// inventory and relocated-page counts), and the extension sensitivity
// studies. Runs execute in parallel across CPUs through the shared
// run-orchestration layer: Ctrl-C cancels outstanding simulations, and
// -cachedir memoizes results on disk so a repeated sweep re-simulates
// nothing. The rendering lives in internal/report; this command only
// parses flags.
//
// Usage:
//
//	sweep                        # all six applications (Figures 2 and 3)
//	sweep -fig 2                 # barnes, em3d, fft
//	sweep -fig 3                 # lu, ocean, radix
//	sweep -app radix             # one application
//	sweep -table 5               # Table 5: programs and problem sizes
//	sweep -table 6               # Table 6: remote vs relocated pages
//	sweep -chart                 # paper-style stacked bar charts
//	sweep -sensitivity threshold # static vs adaptive threshold study
//	sweep -sensitivity rac       # RAC-size study
//	sweep -sensitivity nodes     # machine-size scaling study
//	sweep -scale 4 -csv          # smaller problems, CSV output
//	sweep -cachedir ~/.ascoma    # reuse previous results where possible
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"

	"ascoma"
	"ascoma/internal/obs"
	"ascoma/internal/prof"
	"ascoma/internal/report"
	"ascoma/internal/runcache"
)

var (
	fig         = flag.Int("fig", 0, "figure to regenerate (2 or 3; 0 = both)")
	app         = flag.String("app", "", "run a single application")
	table       = flag.Int("table", 0, "table to regenerate (5 or 6) instead of figures")
	scale       = flag.Int("scale", 1, "problem-size divisor (1 = paper scale)")
	pressures   = flag.String("pressures", "10,30,50,70,90", "comma-separated memory pressures")
	csv         = flag.Bool("csv", false, "emit CSV instead of aligned tables")
	chart       = flag.Bool("chart", false, "render the figures as stacked bar charts (like the paper)")
	sensitivity = flag.String("sensitivity", "", "run a design-choice sensitivity study: 'threshold', 'rac', or 'nodes'")
	svgDir      = flag.String("svg", "", "also write the figures as SVG files into this directory")
	jobs        = flag.Int("jobs", runtime.NumCPU(), "parallel simulations")
	cacheDir    = flag.String("cachedir", "", "persist simulation results in this directory and reuse them across invocations")
	cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	trace       = flag.String("trace", "", "record a flight-recorder trace of one AS-COMA run to this file (requires -app; inspect with ascoma-inspect)")
	epoch       = flag.Int64("epoch", 0, "with -trace, sample per-node epoch probes every N cycles (0 = events only)")
	tiers       = flag.String("tiers", "", "run every cell under tiered memory: capPct:readCycles:writeCycles,... fastest first")
	pagePolicy  = flag.String("pagepolicy", "", "DRAM row-buffer page policy for every cell: open, closed, hybrid (empty = off)")
	tierGrid    = flag.Bool("tiergrid", false, "render the tiered-memory adaptation grid (fast-share x asymmetry x pressure) instead of figures")
	fastShares  = flag.String("fastshares", "", "with -tiergrid, comma-separated fast-tier capacity shares in percent (default 25,50,75)")
	asymmetries = flag.String("asymmetries", "", "with -tiergrid, comma-separated slow-tier latency multiples (default 2,4,8)")
)

// stopProf finishes any active profiles; fail() runs it before os.Exit so a
// profile of a failing run is still written.
var stopProf = func() error { return nil }

func main() {
	flag.Parse()

	var err error
	stopProf, err = prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer func() { run(stopProf()) }()

	// Ctrl-C / SIGTERM cancels outstanding simulations via the context
	// plumbed through the orchestration layer.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if !report.ValidFigure(*fig) {
		fail(fmt.Errorf("sweep: unknown figure %d (2 or 3; 0 = both)", *fig))
	}
	plist, err := report.ParsePressures(*pressures)
	if err != nil {
		fail(err)
	}
	tierSpecs, err := ascoma.ParseTiers(*tiers)
	if err != nil {
		fail(err)
	}

	// The cache publishes its counters (hits, sims, cells shared) into a
	// metrics registry; the exit report renders that registry — the same
	// exposition ascoma-serve serves at /metrics.
	var cache *runcache.Cache
	if *cacheDir != "" {
		cache, err = runcache.New(0, *cacheDir)
		if err != nil {
			fail(err)
		}
		reg := obs.NewRegistry()
		cache.Publish(reg)
		defer func() {
			st := cache.Stats()
			fmt.Fprintf(os.Stderr, "sweep: cache %s\n", st)
			fmt.Fprintf(os.Stderr, "sweep: pressure sharing: %d cells filled from a run that certified their pressure, %d simulated\n",
				st.Shared, st.Sims)
			fmt.Fprintln(os.Stderr, "sweep: run metrics:")
			reg.WriteText(os.Stderr) //ascoma:allow-errdrop best-effort exit report
		}()
	}
	runner := &runcache.Runner{Cache: cache, Jobs: *jobs}
	opts := report.Options{Scale: *scale, Pressures: plist, Jobs: *jobs, Runner: runner,
		Tiers: tierSpecs, PagePolicy: *pagePolicy}
	switch {
	case *csv:
		opts.Format = "csv"
	case *chart:
		opts.Format = "chart"
	}

	var apps []string
	switch {
	case *app != "":
		if !slices.Contains(ascoma.Workloads(), *app) {
			fail(fmt.Errorf("sweep: unknown application %q (registered: %s)",
				*app, strings.Join(ascoma.Workloads(), ", ")))
		}
		apps = []string{*app}
	default:
		apps = report.FigureApps(*fig)
	}

	if *trace != "" {
		if *app == "" {
			fail(fmt.Errorf("sweep: -trace requires -app"))
		}
		run(recordTrace(ctx, runner, *app, plist, *scale, *trace, *epoch))
	}

	switch *table {
	case 5:
		run(report.Table5(ctx, os.Stdout, apps, opts))
		return
	case 6:
		run(report.Table6(ctx, os.Stdout, apps, opts))
		return
	case 0:
	default:
		fail(fmt.Errorf("sweep: unknown table %d (5 or 6)", *table))
	}

	if *tierGrid {
		shares, err := parseAxis("fastshares", *fastShares)
		if err != nil {
			fail(err)
		}
		asyms, err := parseAxis("asymmetries", *asymmetries)
		if err != nil {
			fail(err)
		}
		for _, a := range apps {
			run(report.TierGrid(ctx, os.Stdout, a, shares, asyms, opts))
		}
		return
	}

	switch *sensitivity {
	case "threshold":
		run(report.SensitivityThreshold(ctx, os.Stdout, opts))
		return
	case "rac":
		run(report.SensitivityRAC(ctx, os.Stdout, opts))
		return
	case "nodes":
		run(report.SensitivityNodes(ctx, os.Stdout, opts))
		return
	case "":
	default:
		fail(fmt.Errorf("sweep: unknown sensitivity study %q", *sensitivity))
	}

	for _, a := range apps {
		run(report.Figure(ctx, os.Stdout, a, opts))
		if *svgDir != "" {
			run(writeSVGs(ctx, *svgDir, a, opts))
		}
	}
}

// recordTrace runs the application's most pressured AS-COMA cell with a
// flight recorder attached and writes the binary trace. Observed runs
// bypass the result cache (the simulation must actually execute to fill
// the recording), so this costs one extra simulation even on a warm cache.
func recordTrace(ctx context.Context, runner *runcache.Runner, app string, pressures []int, scale int, path string, epoch int64) error {
	rec := ascoma.NewRecording(0, epoch)
	p := slices.Max(pressures)
	if _, err := runner.Run(ctx, ascoma.Config{
		Arch:     ascoma.ASCOMA,
		Workload: app,
		Pressure: p,
		Scale:    scale,
		Obs:      rec,
	}); err != nil {
		return err
	}
	if err := ascoma.WriteTrace(path, rec); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "sweep: wrote %s (AS-COMA %s pressure=%d%%, %d events recorded)\n",
		path, app, p, rec.Events.Total())
	return nil
}

// writeSVGs renders one application's two panels into <dir>/<app>_time.svg
// and <dir>/<app>_misses.svg.
func writeSVGs(ctx context.Context, dir, app string, opts report.Options) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	timeF, err := os.Create(filepath.Join(dir, app+"_time.svg"))
	if err != nil {
		return err
	}
	defer timeF.Close()
	missF, err := os.Create(filepath.Join(dir, app+"_misses.svg"))
	if err != nil {
		return err
	}
	defer missF.Close()
	if err := report.FigureSVG(ctx, timeF, missF, app, opts); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s_time.svg and %s_misses.svg to %s\n", app, app, dir)
	return nil
}

// parseAxis parses a comma-separated list of positive integers for the
// tier-grid axes; empty selects the report package's default axis.
func parseAxis(name, s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("sweep: bad -%s value %q", name, f)
		}
		out = append(out, v)
	}
	return out, nil
}

func run(err error) {
	if err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	stopProf() //ascoma:allow-errdrop best effort on the failure path
	os.Exit(1)
}
