// Command sweep regenerates the paper's evaluation: the architecture ×
// memory-pressure grids behind Figures 2 and 3 (relative execution time and
// where misses were satisfied, per application), Tables 1-6 (the overhead
// model, cost and complexity, configured characteristics, minimum
// latencies, workload inventory and relocated-page counts), and the
// extension sensitivity studies. Runs execute in parallel across CPUs
// through the shared run-orchestration layer: Ctrl-C cancels outstanding
// simulations, every cell is simulated at most once per invocation (the
// -svg panels render from the grid the text output ran), and -cachedir
// memoizes results on disk so a repeated sweep re-simulates nothing. The
// rendering lives in internal/report; this command only parses flags.
//
// Usage:
//
//	sweep                        # all six applications (Figures 2 and 3)
//	sweep -fig 2                 # barnes, em3d, fft
//	sweep -fig 3                 # lu, ocean, radix
//	sweep -app radix             # one application
//	sweep -table 1               # Table 1: remote-overhead model
//	sweep -table 2               # Table 2: cost and complexity
//	sweep -table 3               # Table 3: cache and network characteristics
//	sweep -table 4               # Table 4: minimum access latency
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
	table       = flag.Int("table", 0, "table to regenerate (1-6) instead of figures")
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

	// Every grid runs through one memory cache, so the SVG panels render
	// from the cells the text output already ran; -cachedir adds the disk
	// layer. With -cachedir the cache publishes its counters (hits, sims,
	// cells shared) into a metrics registry, and the exit report renders
	// that registry — the same exposition ascoma-serve serves at /metrics.
	cache, err := runcache.New(0, *cacheDir)
	if err != nil {
		fail(err)
	}
	if *cacheDir != "" {
		reg := obs.NewRegistry()
		cache.Publish(reg)
		defer func() {
			st := cache.Stats()
			fmt.Fprintf(os.Stderr, "sweep: cache %s\n", st)
			fmt.Fprintf(os.Stderr, "sweep: cell sharing: %d cells filled from a run that certified their architecture and pressure, %d simulated\n",
				st.Shared, st.Sims)
			fmt.Fprintln(os.Stderr, "sweep: run metrics:")
			reg.WriteText(os.Stderr) //ascoma:allow-errdrop best-effort exit report
		}()
	}
	runner := &runcache.Runner{Cache: cache, Jobs: *jobs}
	opts := report.Options{Scale: *scale, Pressures: plist, Jobs: *jobs, Runner: runner}
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

	if *table != 0 {
		run(report.Table(ctx, os.Stdout, *table, apps, opts))
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
