package runcache

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"ascoma"
)

// Runner is the shared orchestration layer every consumer of the simulator
// goes through: a concurrency semaphore bounding simultaneous simulations,
// optional result caching, and context cancellation. The report package,
// cmd/sweep, and cmd/ascoma-serve all submit work here, so cancellation
// semantics and cache behaviour are implemented (and tested) once.
//
// The zero value is usable: no cache, NumCPU concurrency.
type Runner struct {
	// Cache memoizes results (nil = simulate every request).
	Cache *Cache
	// Jobs bounds concurrent simulations (< 1 = NumCPU).
	Jobs int

	once     sync.Once
	sem      chan struct{}
	inflight atomic.Int64
}

func (r *Runner) init() {
	jobs := r.Jobs
	if jobs < 1 {
		jobs = runtime.NumCPU()
	}
	r.sem = make(chan struct{}, jobs)
}

// Run executes (or recalls) one simulation. Identical concurrent requests
// collapse onto one simulation when a Cache is attached. The semaphore is
// acquired only for genuine simulations, never for cache hits, and waiting
// for a slot respects ctx.
func (r *Runner) Run(ctx context.Context, cfg ascoma.Config) (*ascoma.Result, error) {
	_, res, err := r.run(ctx, cfg, nil)
	return res, err
}

// Reply runs cfg like Run and returns encode(result). With a cache
// attached the bytes are stored with the result's cache entry on first use
// and served from there until the entry is evicted or replaced (see
// Cache.Reply); an uncached run is encoded on every call.
func (r *Runner) Reply(ctx context.Context, cfg ascoma.Config, encode func(*ascoma.Result) ([]byte, error)) ([]byte, error) {
	key, res, err := r.run(ctx, cfg, nil)
	if err != nil {
		return nil, err
	}
	if key == "" {
		return encode(res)
	}
	return r.Cache.Reply(key, res, encode)
}

// run is Run that also returns the cache key the result is filed under
// ("" when the run bypasses the cache). A non-nil src is a finished run
// that certifies cfg's architecture and pressure (see schedule): it stands
// in for the simulation as a copy relabelled with cfg's architecture and
// pressure, counted as shared, not simulated.
func (r *Runner) run(ctx context.Context, cfg ascoma.Config, src *ascoma.Result) (Key, *ascoma.Result, error) {
	r.once.Do(r.init)
	if err := ctx.Err(); err != nil {
		return "", nil, err
	}
	sim := func(ctx context.Context) (*ascoma.Result, error) {
		return r.simulate(ctx, cfg, nil)
	}
	if src != nil {
		sim = func(context.Context) (*ascoma.Result, error) {
			st := *src.Machine
			st.Nodes = slices.Clone(src.Nodes)
			st.Arch, st.Pressure = cfg.Arch.String(), cfg.Pressure
			return &ascoma.Result{
				Machine: &st, ArchID: cfg.Arch, PressureCeiling: src.PressureCeiling,
				SameArchs: src.SameArchs.With(src.ArchID).Without(cfg.Arch),
			}, nil
		}
	}
	if r.Cache == nil || cfg.Obs != nil {
		// An observed run must actually simulate: a cache hit would skip
		// the machine entirely and leave the caller's Recording empty (and
		// Config.Obs carries `json:"-"`, so the recording could otherwise
		// collide with an unobserved run's key).
		res, err := sim(ctx)
		return "", res, err
	}
	key, err := KeyOf(cfg)
	if err != nil {
		return "", nil, err
	}
	made := &r.Cache.sims
	if src != nil {
		made = &r.Cache.shared
	}
	res, err := r.Cache.do(ctx, key, sim, made)
	return key, res, err
}

// RunGenerator executes one simulation on a caller-supplied workload
// generator. A generator's identity is not content-addressable, so the
// result is never cached, but the semaphore and cancellation still apply.
func (r *Runner) RunGenerator(ctx context.Context, cfg ascoma.Config, gen ascoma.Generator) (*ascoma.Result, error) {
	r.once.Do(r.init)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return r.simulate(ctx, cfg, gen)
}

// simulate executes one simulation in a slot: it waits for a free slot,
// respecting ctx, and counts the run in flight while it executes. A nil
// gen runs cfg.Workload by name.
func (r *Runner) simulate(ctx context.Context, cfg ascoma.Config, gen ascoma.Generator) (*ascoma.Result, error) {
	select {
	case r.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-r.sem }()
	r.inflight.Add(1)
	defer r.inflight.Add(-1)
	if gen == nil {
		return ascoma.RunContext(ctx, cfg)
	}
	return ascoma.RunGeneratorContext(ctx, cfg, gen)
}

// RunAll runs every cell and returns the results in input order. It is
// the one fan-out behind every simulation grid (report's figures and
// tables, the jobs layer's grids): min(Jobs, len(cells)) workers
// claim cells from a schedule. A cell that a finished run of the grid
// certifies is filled from that run instead of simulated (see schedule);
// the fill is filed in the cache under the cell's own key and is
// bit-identical to a simulation of the cell. On a one-slot Runner cells
// start exactly in the order given. done, when non-nil, is called once per
// finished cell on the caller's goroutine, never concurrently, so it may
// update caller state without a lock. The first failing cell cancels the
// rest — no further cell starts — and the error names it. An
// already-cancelled ctx returns before any simulation.
func (r *Runner) RunAll(ctx context.Context, cells []ascoma.Config, done func(i int, res *ascoma.Result)) ([]*ascoma.Result, error) {
	r.once.Do(r.init)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type finish struct {
		i   int
		res *ascoma.Result
	}
	var (
		wg       sync.WaitGroup
		finished = make(chan finish)
		mu       sync.Mutex // guards sched and err
		sched    = newSchedule(cells)
		err      error
	)
	// claim hands out the next cell, or -1 once every cell is taken or
	// one has failed. A failing worker records its error before it claims
	// again, so no cell starts after the first failure.
	claim := func() (int, *ascoma.Result) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			return -1, nil
		}
		return sched.claim()
	}
	for w := min(cap(r.sem), len(cells)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, src := claim(); i >= 0; i, src = claim() {
				_, res, rerr := r.run(ctx, cells[i], src)
				mu.Lock()
				sched.finish(i, src == nil, res)
				if rerr != nil && err == nil {
					err = fmt.Errorf("%s: %w", cellName(cells[i]), rerr)
					cancel()
				}
				mu.Unlock()
				if rerr == nil {
					finished <- finish{i, res}
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(finished)
	}()
	results := make([]*ascoma.Result, len(cells))
	for f := range finished {
		results[f.i] = f.res
		if done != nil {
			done(f.i, f.res)
		}
	}
	if err != nil {
		return nil, err
	}
	return results, nil
}

// cellName identifies a cell in errors, e.g. "radix AS-COMA(70%)".
func cellName(cfg ascoma.Config) string {
	return fmt.Sprintf("%s %v(%d%%)", cfg.Workload, cfg.Arch, cfg.Pressure)
}

// InFlight returns the number of simulations currently executing (cache
// hits never count).
func (r *Runner) InFlight() int64 { return r.inflight.Load() }
