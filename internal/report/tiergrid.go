package report

// tiergrid.go — the tiered-memory adaptation grid, a figure the 1998
// paper could not show: how each architecture's page-placement policy
// interacts with asymmetric DRAM/NVM memory. The grid sweeps the
// fast-tier capacity share and the slow tier's latency asymmetry at
// each memory pressure; every cell reports execution time relative to
// the SAME architecture on flat memory at the same pressure, so the
// number isolates what tiering costs (or row buffers save) rather than
// re-ranking the architectures. Architectures whose working set fits
// the fast tier degrade little even at 8x asymmetry; page-cache-heavy
// ones ride the pageout daemon's demotion path and show the adaptive
// back-off absorbing tier pressure the way it absorbs page pressure.

import (
	"context"
	"fmt"
	"io"

	"ascoma"
	"ascoma/internal/stats"
)

// Default tier-grid axes: the fast tier's capacity share in percent, and
// the slow tier's read-latency multiple over the fast tier (its write
// latency runs at twice its read latency, the NVM signature).
var (
	DefaultFastShares  = []int{25, 50, 75}
	DefaultAsymmetries = []int{2, 4, 8}
)

// TierAxes returns the fast-share and asymmetry axes a tier grid over
// shares and asyms runs: each the default when empty, else de-duplicated
// like the pressure axis. The jobs layer counts a spec's cells with it.
func TierAxes(shares, asyms []int) ([]int, []int) {
	if len(shares) == 0 {
		shares = DefaultFastShares
	}
	if len(asyms) == 0 {
		asyms = DefaultAsymmetries
	}
	return DedupeAxis(shares), DedupeAxis(asyms)
}

// TierSpecsFor builds the two-tier configuration of one grid cell: a
// fast tier of fastShare percent at the flat local-memory latency, and a
// slow tier holding the rest at asym times the read latency and twice
// that on writes.
func TierSpecsFor(fastShare, asym int) []ascoma.TierSpec {
	lm := ascoma.DefaultParams().LocalMemCycles
	return []ascoma.TierSpec{
		{CapacityPct: fastShare, ReadCycles: lm, WriteCycles: lm},
		{CapacityPct: 100 - fastShare, ReadCycles: lm * int64(asym), WriteCycles: lm * int64(asym) * 2},
	}
}

// tierCell identifies one tier-grid simulation; share/asym of 0/0 is the
// flat same-arch baseline.
type tierCell struct {
	arch        ascoma.Arch
	pressure    int
	share, asym int
}

// TierGrid renders the tier-capacity x asymmetry x pressure grid for one
// application across all six architectures. Nil shares/asyms select the
// default axes, and duplicate values run once; an empty
// Options.PagePolicy defaults to "open" (the policy under which tiering
// is cheapest, making the remaining degradation attributable to
// capacity, not row misses). Cells are
// relative to the flat same-arch baseline at the same pressure, printed
// as one table per pressure with the flat baseline's absolute cycle
// count as the first row.
func TierGrid(ctx context.Context, w io.Writer, app string, shares, asyms []int, o Options) error {
	o = o.withDefaults()
	shares, asyms = TierAxes(shares, asyms)
	for _, s := range shares {
		if s < 1 || s > 99 {
			return fmt.Errorf("report: tier grid fast share %d%% outside 1..99", s)
		}
	}
	for _, a := range asyms {
		if a < 1 {
			return fmt.Errorf("report: tier grid asymmetry %d below 1", a)
		}
	}
	pol := o.PagePolicy
	if pol == "" {
		pol = "open"
	}
	// All six architectures: the paper's five plus the MIG-NUMA
	// page-migration baseline, whose migrations interact with tier
	// placement most directly.
	archs := append(ascoma.Archs(), ascoma.MIGNUMA)

	cells := []tierCell{}
	for _, p := range o.Pressures {
		for _, arch := range archs {
			cells = append(cells, tierCell{arch, p, 0, 0})
			for _, s := range shares {
				for _, a := range asyms {
					cells = append(cells, tierCell{arch, p, s, a})
				}
			}
		}
	}
	cfgs := make([]ascoma.Config, len(cells))
	for i, c := range cells {
		cfgs[i] = ascoma.Config{Arch: c.arch, Workload: app, Pressure: c.pressure, Scale: o.Scale, Cores: o.Cores}
		if c.share > 0 {
			cfgs[i].Tiers = TierSpecsFor(c.share, c.asym)
			cfgs[i].PagePolicy = pol
		}
	}
	results := make(map[tierCell]*ascoma.Result, len(cells))
	if _, err := o.Runner.RunAll(ctx, cfgs, func(i int, res *ascoma.Result) {
		results[cells[i]] = res
		if o.Progress != nil {
			o.Progress(len(results), len(cells))
		}
	}); err != nil {
		return err
	}

	for _, p := range o.Pressures {
		t := &stats.Table{Header: tierHeader(archs)}
		row := []interface{}{"flat (cycles)"}
		for _, arch := range archs {
			row = append(row, results[tierCell{arch, p, 0, 0}].ExecTime)
		}
		t.AddRow(row...)
		for _, s := range shares {
			for _, a := range asyms {
				row := []interface{}{fmt.Sprintf("fast %d%% / slow x%d", s, a)}
				for _, arch := range archs {
					base := results[tierCell{arch, p, 0, 0}]
					res := results[tierCell{arch, p, s, a}]
					row = append(row, f2(float64(res.ExecTime)/float64(base.ExecTime)))
				}
				t.AddRow(row...)
			}
		}
		if o.Format != "csv" {
			if err := writeAll(w, fmt.Sprintf("== %s: tiered-memory grid at %d%% pressure (policy=%s; cells = exec time / flat same-arch) ==\n", app, p, pol)); err != nil {
				return err
			}
		}
		if err := render(w, t, o); err != nil {
			return err
		}
		if o.Format != "csv" {
			if err := writeAll(w, "\n"); err != nil {
				return err
			}
		}
	}
	return nil
}

func tierHeader(archs []ascoma.Arch) []string {
	h := []string{"tier config"}
	for _, a := range archs {
		h = append(h, fmt.Sprint(a))
	}
	return h
}
