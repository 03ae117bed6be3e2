package main

import (
	"context"
	"fmt"
	"strings"

	"ascoma"
	"ascoma/internal/report"
	"ascoma/internal/runcache"
)

const pinsPath = "perfbench/pins.json"

// pinAll simulates every config the workloads can issue and renders every
// figure, then rewrites pins.json — refusing if any config the golden
// matrix also covers disagrees with it.
func pinAll(golden []byte) error {
	p := pins{}
	cache, err := runcache.New(1<<16, "")
	if err != nil {
		return err
	}
	runner := &runcache.Runner{Cache: cache, Jobs: busyThreads}
	ctx := context.Background()
	for _, app := range report.FigureApps(0) {
		var out strings.Builder
		if err := report.Figure(ctx, &out, app, report.Options{Scale: figuresScale, Runner: runner}); err != nil {
			return err
		}
		p[figKey(app, figuresScale)] = hashHex([]byte(out.String()))
	}
	cfgs := []ascoma.Config{thrashCfg, residentCfg}
	for _, app := range report.FigureApps(0) {
		cfgs = append(cfgs, figureCells(app, figuresScale)...)
	}
	cfgs = append(cfgs, servePool()...)
	for _, cfg := range cfgs {
		res, err := runner.Run(ctx, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", cfgKey(cfg), err)
		}
		p[cfgKey(cfg)] = statsChecksum(res.Machine)
	}
	if err := p.agreeWithGolden(golden); err != nil {
		return err
	}
	if err := writePins(pinsPath, p); err != nil {
		return err
	}
	fmt.Printf("perfbench: pinned %d outputs in %s\n", len(p), pinsPath)
	return nil
}
