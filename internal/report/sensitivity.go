package report

import (
	"context"
	"fmt"
	"io"

	"ascoma"
	"ascoma/internal/stats"
	"ascoma/internal/workload"
)

// SensitivityThreshold sweeps the relocation threshold — the key knob the
// adaptive back-off moves — for R-NUMA (static) and AS-COMA (adaptive) on
// radix at 70% pressure. No static value wins everywhere: low values
// thrash, high values forfeit relocation; the adaptive policy is
// insensitive to its starting point.
func SensitivityThreshold(ctx context.Context, w io.Writer, o Options) error {
	o = o.withDefaults()
	const app, pressure = "radix", 70
	base, err := o.Runner.Run(ctx, ascoma.Config{Arch: ascoma.CCNUMA, Workload: app, Pressure: pressure, Scale: o.Scale})
	if err != nil {
		return err
	}
	t := &stats.Table{Header: []string{"threshold", "R-NUMA rel", "R-NUMA K-OVERHD%", "AS-COMA rel", "AS-COMA K-OVERHD%"}}
	for _, th := range []int{8, 16, 32, 64, 128, 256} {
		p := ascoma.DefaultParams()
		p.RefetchThreshold = th
		row := []interface{}{th}
		for _, arch := range []ascoma.Arch{ascoma.RNUMA, ascoma.ASCOMA} {
			res, err := o.Runner.Run(ctx, ascoma.Config{Arch: arch, Workload: app, Pressure: pressure, Scale: o.Scale, Params: p})
			if err != nil {
				return err
			}
			ts := res.SumTime()
			var sum int64
			for _, v := range ts {
				sum += v
			}
			row = append(row, f2(float64(res.ExecTime)/float64(base.ExecTime)),
				f1(pct(ts[stats.KOverhead], sum)))
		}
		t.AddRow(row...)
	}
	if err := writeAll(w, fmt.Sprintf("relocation-threshold sensitivity: %s at %d%% pressure (CC-NUMA = 1.00)\n", app, pressure)); err != nil {
		return err
	}
	return render(w, t, o)
}

// SensitivityRAC sweeps the remote access cache size on fft, the workload
// whose streaming locality the RAC serves best.
func SensitivityRAC(ctx context.Context, w io.Writer, o Options) error {
	o = o.withDefaults()
	const app, pressure = "fft", 50
	t := &stats.Table{Header: []string{"RAC entries", "exec (cycles)", "RAC% of misses", "remote% of misses"}}
	for _, entries := range []int{0, 1, 2, 4, 16} {
		p := ascoma.DefaultParams()
		p.RACEntries = entries
		res, err := o.Runner.Run(ctx, ascoma.Config{Arch: ascoma.CCNUMA, Workload: app, Pressure: pressure, Scale: o.Scale, Params: p})
		if err != nil {
			return err
		}
		m := res.SumMisses()
		var sum int64
		for _, v := range m {
			sum += v
		}
		t.AddRow(entries, res.ExecTime, f1(pct(m[stats.RAC], sum)),
			f1(pct(m[stats.Cold]+m[stats.ConfCapc], sum)))
	}
	if err := writeAll(w, fmt.Sprintf("RAC-size sensitivity: %s at %d%% pressure on CC-NUMA\n", app, pressure)); err != nil {
		return err
	}
	return render(w, t, o)
}

// SensitivityNodes runs the hotcold workload on 4- to 32-node machines at
// moderate pressure: remote latency grows with switch depth, so page
// caching pays more on bigger machines. Custom generators are not
// content-addressable, so these runs bypass the cache (but still share the
// Runner's semaphore and cancellation).
func SensitivityNodes(ctx context.Context, w io.Writer, o Options) error {
	o = o.withDefaults()
	t := &stats.Table{Header: []string{"nodes", "CC-NUMA exec", "AS-COMA exec", "AS-COMA rel", "remote misses saved"}}
	for _, nodes := range []int{4, 8, 16, 32} {
		base, err := o.Runner.RunGenerator(ctx, ascoma.Config{Arch: ascoma.CCNUMA, Pressure: 50},
			workload.NewHotColdN(nodes, o.Scale))
		if err != nil {
			return err
		}
		res, err := o.Runner.RunGenerator(ctx, ascoma.Config{Arch: ascoma.ASCOMA, Pressure: 50},
			workload.NewHotColdN(nodes, o.Scale))
		if err != nil {
			return err
		}
		saved := base.RemoteMisses() - res.RemoteMisses()
		t.AddRow(nodes, base.ExecTime, res.ExecTime,
			f2(float64(res.ExecTime)/float64(base.ExecTime)), saved)
	}
	if err := writeAll(w, "machine-size scaling: hotcold at 50% pressure\n"); err != nil {
		return err
	}
	return render(w, t, o)
}
