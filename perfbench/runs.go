package main

import (
	"context"
	"fmt"
	"time"

	"ascoma"
	"ascoma/internal/machine"
	"ascoma/internal/stats"
	"ascoma/internal/workload"
)

// machineConfig is the machine.Config ascoma.RunContext builds for a flat
// (untiered, no ablation) config; the benchmark calls the machine layer
// directly so each call is its own span.
func machineConfig(cfg ascoma.Config) machine.Config {
	return machine.Config{Arch: cfg.Arch, Pressure: cfg.Pressure, Quantum: cfg.Quantum, Cores: cfg.Cores}
}

// compileWorkload builds a workload generator and compiles every node's
// reference stream: the cold cost a process pays the first time it
// simulates a workload. Both are memoized process-wide, so later calls
// are cheap.
func compileWorkload(sp *spans, name string, scale int) (workload.Generator, error) {
	s := sp.begin("workload.New", -1)
	defer sp.end(s)
	gen, err := workload.New(name, scale)
	if err != nil {
		return nil, err
	}
	for i := 0; i < gen.Nodes(); i++ {
		workload.Recycle(gen.Stream(i))
	}
	return gen, nil
}

// probeArena times machine.New and Release for each config without
// running it, as traced spans: the per-cell construction cost that grid
// workloads pay inside calls the benchmark cannot split.
func probeArena(ph *phase, cfgs []ascoma.Config) error {
	for _, cfg := range cfgs {
		gen, err := workload.New(cfg.Workload, cfg.Scale)
		if err != nil {
			return err
		}
		s := ph.sp.begin("machine.New", -1)
		m, err := machine.New(machineConfig(cfg), gen)
		ph.sp.end(s)
		if err != nil {
			return err
		}
		s = ph.sp.begin("machine.Release", -1)
		m.Release()
		ph.sp.end(s)
	}
	return nil
}

// runs repeats one simulation config back to back on the calling
// goroutine: the thrash and resident workloads.
type runs struct {
	cfg     ascoma.Config
	perPass int
	pins    pins
}

func (r *runs) setup(sp *spans) error {
	if _, err := compileWorkload(sp, r.cfg.Workload, r.cfg.Scale); err != nil {
		return err
	}
	// The first run builds the machine that fills the arena and grows the
	// heap to its working size.
	_, _, err := r.run(nil)
	return err
}

func (r *runs) prepare() error      { return nil }
func (r *runs) finish(*phase) error { return nil }
func (r *runs) close()              {}

func (r *runs) pass(ph *phase) (time.Duration, error) {
	var total time.Duration
	for i := 0; i < r.perPass; i++ {
		d, st, err := r.run(ph)
		total += d
		ph.op(d)
		if err == nil {
			err = r.pins.check(cfgKey(r.cfg), statsChecksum(st))
		}
		ph.record(err)
	}
	return total, nil
}

// run is one simulation and the time it took. Untraced (ph nil or its
// spans nil) it is one call of the public entry point, ascoma.RunContext,
// and the phase's counts are taken after the clock stops. Traced, it goes
// through the machine layer's calls instead, each its own span.
func (r *runs) run(ph *phase) (time.Duration, *stats.Machine, error) {
	if ph == nil || ph.sp == nil {
		start := time.Now()
		res, err := ascoma.RunContext(context.Background(), r.cfg)
		d := time.Since(start)
		if err != nil {
			return d, nil, fmt.Errorf("%s: %w", cfgKey(r.cfg), err)
		}
		if ph != nil {
			ph.addRun(res.Machine, nil)
		}
		return d, res.Machine, nil
	}
	return r.tracedRun(ph)
}

// tracedRun is one simulation through the machine layer's public calls,
// each a span under one "op" span. ascoma.RunContext makes the same calls
// for a flat config (see machineConfig).
func (r *runs) tracedRun(ph *phase) (time.Duration, *stats.Machine, error) {
	sp := ph.sp
	start := time.Now()
	root := sp.begin("op", -1)
	defer sp.end(root)

	s := sp.begin("workload.New", root)
	gen, err := workload.New(r.cfg.Workload, r.cfg.Scale)
	sp.end(s)
	if err != nil {
		return time.Since(start), nil, err
	}
	s = sp.begin("machine.New", root)
	m, err := machine.New(machineConfig(r.cfg), gen)
	sp.end(s)
	if err != nil {
		return time.Since(start), nil, err
	}
	s = sp.begin("machine.RunContext", root)
	st, err := m.RunContext(context.Background())
	sp.end(s)
	if err != nil {
		m.Release()
		return time.Since(start), nil, fmt.Errorf("%s: %w", cfgKey(r.cfg), err)
	}
	s = sp.begin("machine.Utilization", root)
	ph.addRun(st, m)
	sp.end(s)
	s = sp.begin("machine.Release", root)
	m.Release()
	sp.end(s)
	return time.Since(start), st, nil
}
