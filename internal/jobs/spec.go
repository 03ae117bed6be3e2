// Package jobs is the async job layer behind ascoma-serve's farm API: a
// manager that shards run, grid, and figure specs across the shared
// runcache.Runner pool with bounded admission, per-job cancellation, an
// ordered event log clients stream (per-cell completions, per-epoch probe
// rows from internal/obs), and deterministic result assembly — cells land
// in spec order no matter which worker goroutine finishes first.
package jobs

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"ascoma"
	"ascoma/internal/estimate"
	"ascoma/internal/mem"
	"ascoma/internal/params"
	"ascoma/internal/report"
	"ascoma/internal/runcache"
	"ascoma/internal/workload"
)

// Validation bounds. The simulator itself tolerates almost anything — a
// negative scale normalizes, an absurd MaxCycles just runs forever — so
// the service boundary is where nonsense becomes a 400 instead of a hung
// worker or a poisoned cache key.
const (
	// MaxScale bounds the problem-size divisor. Larger divisors than this
	// leave no problem to simulate.
	MaxScale = 1 << 16
	// MaxCycleBound bounds MaxCycles, SampleInterval, and EpochInterval.
	MaxCycleBound = int64(1) << 50
	// MinInterval is the smallest accepted SampleInterval/EpochInterval:
	// one dispatch quantum. Finer sampling melts memory (one row per
	// interval) without resolving anything below the scheduling grain.
	MinInterval = 100
)

// ValidationError marks a client-side spec problem; the HTTP layer maps it
// to 400 where any other error is a 500.
type ValidationError struct{ msg string }

func (e *ValidationError) Error() string { return e.msg }

func badSpec(format string, args ...any) error {
	return &ValidationError{msg: fmt.Sprintf(format, args...)}
}

// IsValidation reports whether err is a spec-validation failure.
func IsValidation(err error) bool {
	var v *ValidationError
	return errors.As(err, &v)
}

// RunSpec is one simulation request — the body of POST /api/v1/run and the
// "run" arm of a job spec. Validation lives here so the synchronous and
// async endpoints reject the same nonsense the same way.
type RunSpec struct {
	Arch           string `json:"arch"`
	Workload       string `json:"workload"`
	Pressure       int    `json:"pressure"`
	Scale          int    `json:"scale"`
	MaxCycles      int64  `json:"maxCycles"`
	SampleInterval int64  `json:"sampleInterval"`
	// EpochInterval, when > 0, attaches obs epoch probes to the run and
	// streams one "epoch" event per completed row on the job's event feed.
	// Observed runs always simulate (the cache read path is bypassed so
	// the probes fill) but still populate the cache on completion. Only
	// the async jobs endpoint honours it; POST /api/v1/run rejects it.
	EpochInterval int64 `json:"epochInterval,omitempty"`
	// Tiers and PagePolicy select the tiered-memory model
	// (ascoma.Config.Tiers/PagePolicy); both empty = the default one tier.
	Tiers      []ascoma.TierSpec `json:"tiers,omitempty"`
	PagePolicy string            `json:"pagePolicy,omitempty"`
}

// checkTiers is the shared tier-spec gate for every arm that accepts a
// tiered-memory configuration: internal/mem's bounds (capacities positive
// and summing to 100, latencies positive, at most mem.MaxTiers tiers,
// known policy name) surfaced as ValidationErrors so the HTTP layer
// answers 400, not 500.
func checkTiers(tiers []ascoma.TierSpec, policy string) error {
	if _, err := mem.ParsePolicy(policy); err != nil {
		return badSpec("%v", err)
	}
	if err := mem.ValidateTiers(tiers); err != nil {
		return badSpec("%v", err)
	}
	return nil
}

// Config validates the spec and converts it to an ascoma.Config (without
// observation attached — the job runner wires EpochInterval itself).
func (r RunSpec) Config(cores int) (ascoma.Config, error) {
	arch, err := ascoma.ParseArch(r.Arch)
	if err != nil {
		return ascoma.Config{}, badSpec("%v", err)
	}
	if !slices.Contains(ascoma.Workloads(), r.Workload) {
		return ascoma.Config{}, badSpec("unknown workload %q (registered: %s)",
			r.Workload, strings.Join(ascoma.Workloads(), ", "))
	}
	if r.Pressure < 1 || r.Pressure > 99 {
		return ascoma.Config{}, badSpec("pressure %d out of range [1,99]", r.Pressure)
	}
	if r.Scale < 0 || r.Scale > MaxScale {
		return ascoma.Config{}, badSpec("scale %d out of range [0,%d]", r.Scale, MaxScale)
	}
	if r.MaxCycles < 0 || r.MaxCycles > MaxCycleBound {
		return ascoma.Config{}, badSpec("maxCycles %d out of range [0,%d]", r.MaxCycles, MaxCycleBound)
	}
	if err := checkInterval("sampleInterval", r.SampleInterval); err != nil {
		return ascoma.Config{}, err
	}
	if err := checkInterval("epochInterval", r.EpochInterval); err != nil {
		return ascoma.Config{}, err
	}
	if err := checkTiers(r.Tiers, r.PagePolicy); err != nil {
		return ascoma.Config{}, err
	}
	return ascoma.Config{
		Arch:           arch,
		Workload:       r.Workload,
		Pressure:       r.Pressure,
		Scale:          r.Scale,
		MaxCycles:      r.MaxCycles,
		SampleInterval: r.SampleInterval,
		Cores:          cores,
		Tiers:          r.Tiers,
		PagePolicy:     r.PagePolicy,
	}, nil
}

func checkInterval(name string, v int64) error {
	if v < 0 || v > MaxCycleBound {
		return badSpec("%s %d out of range [0,%d]", name, v, MaxCycleBound)
	}
	if v > 0 && v < MinInterval {
		return badSpec("%s %d below minimum %d (finer sampling than one quantum resolves nothing)", name, v, MinInterval)
	}
	return nil
}

// GridSpec is a sweep grid: the cross product of workloads, architectures,
// and pressures, sharded cell-by-cell across the runner pool. An empty
// Archs selects the paper's figure grid — the pressure-insensitive CC-NUMA
// baseline once, plus the four adaptive architectures at every pressure —
// so a grid job warms exactly the cells a later figure render reads.
type GridSpec struct {
	Apps      []string `json:"apps"`
	Archs     []string `json:"archs,omitempty"`
	Pressures []int    `json:"pressures,omitempty"`
	Scale     int      `json:"scale"`
	MaxCycles int64    `json:"maxCycles,omitempty"`
	// Tiers and PagePolicy apply the tiered-memory model to every cell.
	Tiers      []ascoma.TierSpec `json:"tiers,omitempty"`
	PagePolicy string            `json:"pagePolicy,omitempty"`
}

// figureArchs are the pressure-sensitive architectures of the paper's
// figure grids, in presentation order.
var figureArchs = []ascoma.Arch{ascoma.SCOMA, ascoma.ASCOMA, ascoma.VCNUMA, ascoma.RNUMA}

// cells validates the spec and expands it into configs, in the
// deterministic app-major, arch-then-pressure order results are assembled
// in.
func (g GridSpec) cells(cores, maxCells int) ([]ascoma.Config, error) {
	apps := g.Apps
	if len(apps) == 0 {
		apps = report.FigureApps(0)
	}
	for _, a := range apps {
		if !slices.Contains(ascoma.Workloads(), a) {
			return nil, badSpec("unknown workload %q (registered: %s)", a, strings.Join(ascoma.Workloads(), ", "))
		}
	}
	pressures := report.PressureAxis(g.Pressures)
	for _, p := range pressures {
		if p < 1 || p > 99 {
			return nil, badSpec("pressure %d out of range [1,99]", p)
		}
	}
	if g.Scale < 0 || g.Scale > MaxScale {
		return nil, badSpec("scale %d out of range [0,%d]", g.Scale, MaxScale)
	}
	if g.MaxCycles < 0 || g.MaxCycles > MaxCycleBound {
		return nil, badSpec("maxCycles %d out of range [0,%d]", g.MaxCycles, MaxCycleBound)
	}
	if err := checkTiers(g.Tiers, g.PagePolicy); err != nil {
		return nil, err
	}

	var archs []ascoma.Arch
	baseline := false
	if len(g.Archs) == 0 {
		archs, baseline = figureArchs, true
	} else {
		for _, s := range g.Archs {
			a, err := ascoma.ParseArch(s)
			if err != nil {
				return nil, badSpec("%v", err)
			}
			archs = append(archs, a)
		}
	}

	var cells []ascoma.Config
	add := func(arch ascoma.Arch, app string, pressure int) {
		cells = append(cells, ascoma.Config{
			Arch: arch, Workload: app, Pressure: pressure,
			Scale: g.Scale, MaxCycles: g.MaxCycles, Cores: cores,
			Tiers: g.Tiers, PagePolicy: g.PagePolicy,
		})
	}
	for _, app := range apps {
		if baseline {
			add(ascoma.CCNUMA, app, 50)
		}
		for _, a := range archs {
			for _, p := range pressures {
				add(a, app, p)
			}
		}
	}
	if len(cells) > maxCells {
		return nil, badSpec("grid expands to %d cells, exceeding the per-job bound %d", len(cells), maxCells)
	}
	return cells, nil
}

// FigureSpec renders one figure panel asynchronously through the report
// package; the grid cells stream as progress events and the finished
// document is the job result.
type FigureSpec struct {
	App       string `json:"app"`
	Format    string `json:"format,omitempty"` // "", "table", "csv", "chart"
	Scale     int    `json:"scale"`
	Pressures []int  `json:"pressures,omitempty"`
	// Tiers and PagePolicy render the figure under the tiered-memory
	// model (report.Options.Tiers/PagePolicy).
	Tiers      []ascoma.TierSpec `json:"tiers,omitempty"`
	PagePolicy string            `json:"pagePolicy,omitempty"`
}

func (f FigureSpec) validate() error {
	if !slices.Contains(ascoma.Workloads(), f.App) {
		return badSpec("unknown workload %q (registered: %s)", f.App, strings.Join(ascoma.Workloads(), ", "))
	}
	switch f.Format {
	case "", "table", "csv", "chart":
	default:
		return badSpec("unknown format %q (table, csv, chart)", f.Format)
	}
	if f.Scale < 0 || f.Scale > MaxScale {
		return badSpec("scale %d out of range [0,%d]", f.Scale, MaxScale)
	}
	for _, p := range f.Pressures {
		if p < 1 || p > 99 {
			return badSpec("pressure %d out of range [1,99]", p)
		}
	}
	return checkTiers(f.Tiers, f.PagePolicy)
}

// ReportOptions validates the spec and converts it to report.Options —
// the synchronous figure endpoint and the async figure job share this, so
// both reject the same nonsense the same way.
func (f FigureSpec) ReportOptions(runner *runcache.Runner, cores int) (report.Options, error) {
	if err := f.validate(); err != nil {
		return report.Options{}, err
	}
	return report.Options{
		Runner:     runner,
		Cores:      cores,
		Scale:      f.Scale,
		Pressures:  f.Pressures,
		Format:     f.Format,
		Tiers:      f.Tiers,
		PagePolicy: f.PagePolicy,
	}, nil
}

// TierGridSpec renders the tiered-memory adaptation grid (report.TierGrid)
// asynchronously: the fast-tier capacity share x latency-asymmetry x
// pressure sweep for one application across all six architectures.
type TierGridSpec struct {
	App       string `json:"app"`
	Format    string `json:"format,omitempty"` // "", "table", "csv"
	Scale     int    `json:"scale"`
	Pressures []int  `json:"pressures,omitempty"`
	// FastShares is the fast tier's capacity-share axis in percent
	// (default 25,50,75); Asymmetries the slow tier's read-latency
	// multiple (default 2,4,8).
	FastShares  []int `json:"fastShares,omitempty"`
	Asymmetries []int `json:"asymmetries,omitempty"`
	// PagePolicy is the row-buffer policy every tiered cell runs under
	// ("" = the grid's "open" default).
	PagePolicy string `json:"pagePolicy,omitempty"`
}

// maxTierAxis bounds each tier-grid axis; beyond it the cell count, not
// the rendering, is the problem — use several jobs.
const maxTierAxis = 16

func (t TierGridSpec) validate() error {
	if !slices.Contains(ascoma.Workloads(), t.App) {
		return badSpec("unknown workload %q (registered: %s)", t.App, strings.Join(ascoma.Workloads(), ", "))
	}
	switch t.Format {
	case "", "table", "csv":
	default:
		return badSpec("unknown tier-grid format %q (table, csv)", t.Format)
	}
	if t.Scale < 0 || t.Scale > MaxScale {
		return badSpec("scale %d out of range [0,%d]", t.Scale, MaxScale)
	}
	for _, p := range t.Pressures {
		if p < 1 || p > 99 {
			return badSpec("pressure %d out of range [1,99]", p)
		}
	}
	if len(t.FastShares) > maxTierAxis || len(t.Asymmetries) > maxTierAxis {
		return badSpec("tier-grid axes bounded at %d values each", maxTierAxis)
	}
	for _, s := range t.FastShares {
		if s < 1 || s > 99 {
			return badSpec("fast share %d%% out of range [1,99]", s)
		}
	}
	for _, a := range t.Asymmetries {
		if a < 1 || a > 1024 {
			return badSpec("asymmetry %d out of range [1,1024]", a)
		}
	}
	if _, err := mem.ParsePolicy(t.PagePolicy); err != nil {
		return badSpec("%v", err)
	}
	return nil
}

// cellCount is the grid's simulation count (for job progress totals):
// per pressure and architecture, one flat baseline plus one cell per
// share x asymmetry combination.
func (t TierGridSpec) cellCount() int {
	shares, asyms := report.TierAxes(t.FastShares, t.Asymmetries)
	return 6 * len(report.PressureAxis(t.Pressures)) * (1 + len(shares)*len(asyms))
}

// Spec is the POST /api/v1/jobs body: exactly one arm set.
type Spec struct {
	Run      *RunSpec      `json:"run,omitempty"`
	Grid     *GridSpec     `json:"grid,omitempty"`
	Figure   *FigureSpec   `json:"figure,omitempty"`
	TierGrid *TierGridSpec `json:"tierGrid,omitempty"`
}

// Kind names the populated arm.
func (s Spec) Kind() string {
	switch {
	case s.Run != nil:
		return "run"
	case s.Grid != nil:
		return "grid"
	case s.Figure != nil:
		return "figure"
	case s.TierGrid != nil:
		return "tiergrid"
	}
	return ""
}

func (s Spec) validateShape() error {
	n := 0
	for _, set := range []bool{s.Run != nil, s.Grid != nil, s.Figure != nil, s.TierGrid != nil} {
		if set {
			n++
		}
	}
	if n != 1 {
		return badSpec(`spec must set exactly one of "run", "grid", "figure", or "tierGrid"`)
	}
	return nil
}

// EstimateSpec is the body of POST /api/v1/estimate: analytical
// steady-state predictions (internal/estimate) for one workload across an
// architecture x pressure grid. No simulation runs — predictions cost
// microseconds — so there is no async arm; the endpoint is synchronous.
// An empty Archs selects the full six-architecture golden matrix; an
// empty Pressures the default figure grid.
type EstimateSpec struct {
	Workload  string   `json:"workload"`
	Archs     []string `json:"archs,omitempty"`
	Pressures []int    `json:"pressures,omitempty"`
	Scale     int      `json:"scale"`
	// Tiers and PagePolicy fold a tiered-memory configuration into the
	// model (estimate.SetTiers): predictions shift by the capacity-
	// weighted effective latency the tier mix induces.
	Tiers      []ascoma.TierSpec `json:"tiers,omitempty"`
	PagePolicy string            `json:"pagePolicy,omitempty"`
}

// Predictions validates the spec, builds (or reuses the memoized)
// workload profile, and computes one prediction per grid cell.
func (e EstimateSpec) Predictions() ([]estimate.Prediction, error) {
	if !slices.Contains(ascoma.Workloads(), e.Workload) {
		return nil, badSpec("unknown workload %q (registered: %s)",
			e.Workload, strings.Join(ascoma.Workloads(), ", "))
	}
	if e.Scale < 0 || e.Scale > MaxScale {
		return nil, badSpec("scale %d out of range [0,%d]", e.Scale, MaxScale)
	}
	if err := checkTiers(e.Tiers, e.PagePolicy); err != nil {
		return nil, err
	}
	archs := []ascoma.Arch{ascoma.CCNUMA, ascoma.SCOMA, ascoma.RNUMA, ascoma.VCNUMA, ascoma.ASCOMA, ascoma.MIGNUMA}
	if len(e.Archs) > 0 {
		archs = archs[:0]
		seen := map[ascoma.Arch]bool{}
		for _, a := range e.Archs {
			arch, err := ascoma.ParseArch(a)
			if err != nil {
				return nil, badSpec("%v", err)
			}
			if !seen[arch] {
				seen[arch] = true
				archs = append(archs, arch)
			}
		}
	}
	for _, p := range e.Pressures {
		if p < 1 || p > 99 {
			return nil, badSpec("pressure %d out of range [1,99]", p)
		}
	}
	pressures := report.PressureAxis(e.Pressures)
	prof, err := workload.ProfileFor(e.Workload, e.Scale)
	if err != nil {
		return nil, badSpec("%v", err)
	}
	est, err := estimate.New(prof, params.Default())
	if err != nil {
		return nil, fmt.Errorf("jobs: estimator for %s: %w", e.Workload, err)
	}
	if len(e.Tiers) > 0 || e.PagePolicy != "" {
		pol, _ := mem.ParsePolicy(e.PagePolicy) // validated above
		est.SetTiers(e.Tiers, pol)
	}
	preds := make([]estimate.Prediction, 0, len(archs)*len(pressures))
	for _, arch := range archs {
		for _, p := range pressures {
			preds = append(preds, est.Predict(arch, p))
		}
	}
	return preds, nil
}
