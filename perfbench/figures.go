package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"ascoma"
	"ascoma/internal/machine"
	"ascoma/internal/report"
	"ascoma/internal/runcache"
)

// figurePressures and figureArchs are report's default Figure 2/3 grid:
// CC-NUMA once at 50%, the four pressure-sensitive architectures at every
// pressure. If report's grid changes, the per-cell checks below fail.
var (
	figurePressures = []int{10, 30, 50, 70, 90}
	figureArchs     = []ascoma.Arch{ascoma.SCOMA, ascoma.ASCOMA, ascoma.VCNUMA, ascoma.RNUMA}
)

// figureCells lists one application's grid configs.
func figureCells(app string, scale int) []ascoma.Config {
	cells := []ascoma.Config{{Arch: ascoma.CCNUMA, Workload: app, Pressure: 50, Scale: scale}}
	for _, a := range figureArchs {
		for _, p := range figurePressures {
			cells = append(cells, ascoma.Config{Arch: a, Workload: app, Pressure: p, Scale: scale})
		}
	}
	return cells
}

// figures regenerates Figures 2 and 3 cold in every pass: report.Figure
// for all six applications on a fresh runcache.Runner with two jobs,
// unscreened, as cmd/sweep does by default. The seed draws the order of
// the six report.Figure calls only: report.Figure's public API fixes the
// order of the cells inside a figure, so every seed does the same work.
type figures struct {
	scale int
	rng   *rand.Rand
	pins  pins
	cells []ascoma.Config // every cell of every application
}

func newFigures(scale int, seed uint64, p pins) *figures {
	f := &figures{scale: scale, rng: rand.New(rand.NewPCG(seed, 0xf16)), pins: p}
	for _, app := range report.FigureApps(0) {
		f.cells = append(f.cells, figureCells(app, scale)...)
	}
	return f
}

func (f *figures) setup(sp *spans) error {
	for _, app := range report.FigureApps(0) {
		if _, err := compileWorkload(sp, app, f.scale); err != nil {
			return err
		}
	}
	// Build every cell's machine once: a grid's first pass otherwise pays
	// for filling the arena with each cell shape.
	for _, cfg := range f.cells {
		gen, err := compileWorkload(nil, cfg.Workload, f.scale)
		if err != nil {
			return err
		}
		m, err := machine.New(machineConfig(cfg), gen)
		if err != nil {
			return err
		}
		m.Release()
	}
	return nil
}

func (f *figures) prepare() error      { return nil }
func (f *figures) finish(*phase) error { return nil }
func (f *figures) close()              {}

func (f *figures) pass(ph *phase) (time.Duration, error) {
	cache, err := runcache.New(len(f.cells), "")
	if err != nil {
		return 0, err
	}
	runner := &runcache.Runner{Cache: cache, Jobs: 2}
	apps := report.FigureApps(0)
	f.rng.Shuffle(len(apps), func(i, j int) { apps[i], apps[j] = apps[j], apps[i] })

	var total time.Duration
	root := ph.sp.begin("pass", -1)
	for _, app := range apps {
		var out strings.Builder
		s := ph.sp.begin("report.Figure/"+app, root)
		start := time.Now()
		err := report.Figure(context.Background(), &out, app, report.Options{Scale: f.scale, Jobs: 2, Runner: runner})
		d := time.Since(start)
		ph.sp.end(s)
		total += d
		if err == nil {
			err = f.check(ph, cache, app, out.String())
		}
		ph.record(err)
	}
	ph.sp.end(root)
	ph.op(total)
	ph.addRuncache(cache.Stats())
	if ph.sp != nil {
		if err := probeArena(ph, f.cells); err != nil {
			return 0, err
		}
	}
	return total, nil
}

// check verifies one rendered figure against its pin and every grid cell
// behind it against the pinned statistics checksum.
func (f *figures) check(ph *phase, cache *runcache.Cache, app, text string) error {
	if err := f.pins.check(figKey(app, f.scale), hashHex([]byte(text))); err != nil {
		return err
	}
	for _, cfg := range figureCells(app, f.scale) {
		key, err := runcache.KeyOf(cfg)
		if err != nil {
			return err
		}
		res, err := cache.Fetch(context.Background(), key)
		if err != nil {
			return fmt.Errorf("%s: not in the figure's result cache: %w", cfgKey(cfg), err)
		}
		if err := f.pins.check(cfgKey(cfg), statsChecksum(res.Machine)); err != nil {
			return err
		}
		ph.addRun(res.Machine, nil)
	}
	return nil
}
