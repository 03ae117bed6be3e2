package ascoma_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"ascoma"
	"ascoma/internal/machine"
	"ascoma/internal/runcache"
	"ascoma/internal/workload"
)

// TestRunEntryPointsCancel holds every exported Run* entry point that takes
// a context.Context to the cancellation contract: a cancel that lands after
// the call has started aborts the event loop, and the error wraps
// context.Canceled. Each would simulate paper-scale fft for seconds, so an
// entry point that checks ctx on entry but drops it on the way to the event
// loop finishes the run and fails here. The wrappers without a context
// (ascoma.Run, ascoma.RunGenerator, Machine.Run) pass context.Background
// to their Context variants.
func TestRunEntryPointsCancel(t *testing.T) {
	cfg := ascoma.Config{Arch: ascoma.ASCOMA, Workload: "fft", Pressure: 70, Scale: 1}
	gen := func(t *testing.T) workload.Generator {
		g, err := workload.New(cfg.Workload, cfg.Scale)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, ctx context.Context) error
	}{
		{"ascoma.RunContext", func(t *testing.T, ctx context.Context) error {
			_, err := ascoma.RunContext(ctx, cfg)
			return err
		}},
		{"ascoma.RunGeneratorContext", func(t *testing.T, ctx context.Context) error {
			_, err := ascoma.RunGeneratorContext(ctx, cfg, gen(t))
			return err
		}},
		{"Machine.RunContext", func(t *testing.T, ctx context.Context) error {
			m, err := machine.New(machine.Config{Arch: cfg.Arch, Pressure: cfg.Pressure}, gen(t))
			if err != nil {
				t.Fatal(err)
			}
			_, err = m.RunContext(ctx)
			return err
		}},
		{"Runner.Run", func(t *testing.T, ctx context.Context) error {
			_, err := (&runcache.Runner{Jobs: 1}).Run(ctx, cfg)
			return err
		}},
		{"Runner.RunGenerator", func(t *testing.T, ctx context.Context) error {
			_, err := (&runcache.Runner{Jobs: 1}).RunGenerator(ctx, cfg, gen(t))
			return err
		}},
		{"Runner.RunAll", func(t *testing.T, ctx context.Context) error {
			_, err := (&runcache.Runner{Jobs: 1}).RunAll(ctx, []ascoma.Config{cfg}, nil)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			time.AfterFunc(20*time.Millisecond, cancel)
			if err := tc.run(t, ctx); !errors.Is(err, context.Canceled) {
				t.Errorf("err = %v, want context.Canceled", err)
			}
		})
	}
}
