// Package ascoma is an execution-driven simulator of hybrid CC-NUMA /
// S-COMA distributed shared memory architectures, reproducing "AS-COMA: An
// Adaptive Hybrid Shared Memory Architecture" (Kuo, Carter, Kuramkote,
// Swanson; University of Utah, 1998).
//
// Five architectures are modeled — CC-NUMA, pure S-COMA, R-NUMA, VC-NUMA,
// and the paper's adaptive AS-COMA — on a configurable multiprocessor with
// per-node L1 caches, remote access caches, split-transaction buses,
// interleaved memory banks, a switched interconnect, a write-invalidate
// directory protocol with refetch counting, and a 4.4BSD-style VM kernel
// with a second-chance pageout daemon.
//
// Quick start:
//
//	res, err := ascoma.Run(ascoma.Config{
//		Arch:     ascoma.ASCOMA,
//		Workload: "radix",
//		Pressure: 70,
//	})
//	if err != nil { ... }
//	fmt.Println(res.Report())
//
// See cmd/sweep for regenerating every figure and table in the paper's
// evaluation, and EXPERIMENTS.md for the measured results.
package ascoma

import (
	"context"
	"fmt"
	"strings"

	"ascoma/internal/core"
	"ascoma/internal/machine"
	"ascoma/internal/mem"
	"ascoma/internal/obs"
	"ascoma/internal/params"
	"ascoma/internal/stats"
	"ascoma/internal/workload"
)

// Arch re-exports the architecture identifiers.
type Arch = params.Arch

// The five simulated memory architectures of the paper, plus MIGNUMA, a
// dynamic page-migration baseline built as an extension (see
// examples/placement).
const (
	CCNUMA  = params.CCNUMA
	SCOMA   = params.SCOMA
	RNUMA   = params.RNUMA
	VCNUMA  = params.VCNUMA
	ASCOMA  = params.ASCOMA
	MIGNUMA = params.MIGNUMA
)

// Params re-exports the machine configuration; DefaultParams returns the
// paper's configuration.
type Params = params.Params

// DefaultParams returns the paper's machine configuration (Section 4).
func DefaultParams() Params { return params.Default() }

// ParseArch converts a string such as "AS-COMA" or "ccnuma" to an Arch.
func ParseArch(s string) (Arch, error) { return params.ParseArch(s) }

// Archs lists every architecture in the order the paper's figures use.
func Archs() []Arch { return params.AllArchs() }

// Workloads lists the registered workload names.
func Workloads() []string { return workload.Names() }

// Config selects one simulation run.
type Config struct {
	// Arch is the memory architecture to simulate.
	Arch Arch
	// Workload is a registered workload name ("barnes", "em3d", "fft",
	// "lu", "ocean", "radix", or one of the synthetic generators).
	Workload string
	// Pressure is the memory pressure in percent (1..99): the fraction
	// of each node's physical memory holding the application's home data.
	Pressure int
	// Scale divides the workload problem size (0 or 1 = paper scale).
	// Tests and benchmarks use larger values for speed.
	Scale int
	// Params overrides the machine parameters (zero value = defaults).
	Params Params
	// MaxCycles aborts runs exceeding this simulated time (0 = no limit).
	MaxCycles int64
	// Quantum is the number of cycles one node advances before the event
	// loop switches to the next (0 = the 100-cycle default). A coarser
	// quantum trades timeslicing fidelity for host speed — fewer scheduling
	// events per simulated cycle. It changes simulated results, so it
	// participates in the content-addressed cache key.
	Quantum int64
	// Ablation, with Arch == ASCOMA, disables one of AS-COMA's two
	// improvements to measure its contribution in isolation (the paper's
	// Section 5.1 / 5.2 decomposition).
	Ablation Ablation
	// SampleInterval, when > 0, records node 0's adaptive state (the
	// relocation threshold, pool size, remap counts) every that-many
	// cycles into Result.Samples — the adaptation timeline.
	SampleInterval int64
	// Obs attaches a flight recorder and epoch probes to the run (see
	// internal/obs and Recording). Nil leaves observability off. Excluded
	// from the content-addressed cache key: a Recording is an output
	// channel, not a simulation parameter — results are identical with or
	// without one, and runcache bypasses the cache when it is set so the
	// simulation actually executes and fills it.
	Obs *Recording `json:"-"`
	// Deprecated: runs are sequential; ignored.
	Cores int `json:"-"`

	// Tiers partitions each node's physical memory into asymmetric tiers,
	// fastest first (see TierSpec): new pages allocate into the fastest
	// tier with headroom, the pageout daemon demotes cold pages tier-down
	// before evicting, and hot slow-tier pages are promoted back up. Nil
	// is the paper's uniform memory, one tier at Params.LocalMemCycles —
	// and, being omitempty, leaves the content-addressed cache key of
	// every pre-tier config unchanged.
	Tiers []TierSpec `json:"tiers,omitempty"`
	// PagePolicy selects the per-bank DRAM row-buffer page policy:
	// "open", "closed", "hybrid", or ""/"none" for no row-buffer
	// modeling. With no Tiers it applies to the default single tier.
	PagePolicy string `json:"pagePolicy,omitempty"`
}

// TierSpec describes one memory tier (capacity share plus asymmetric
// read/write latencies); see internal/mem.
type TierSpec = mem.TierSpec

// ParseTiers parses the CLI tier syntax
// "capPct:readCycles:writeCycles,..." (fastest tier first; capacities
// must sum to 100). An empty string returns nil (the default one tier).
func ParseTiers(s string) ([]TierSpec, error) { return mem.ParseTiers(s) }

// Recording re-exports the observability container (see internal/obs): a
// flight-recorder event ring plus per-node epoch probe series, filled in
// during the run and encodable with WriteTrace.
type Recording = obs.Recording

// NewRecording builds a recording with an event ring of eventCap entries
// (0 = the 64 Ki default) sampling epoch probes every epochInterval cycles
// (0 = no epoch probes).
func NewRecording(eventCap int, epochInterval int64) *Recording {
	return obs.NewRecording(eventCap, epochInterval)
}

// WriteTrace encodes a recording to the deterministic binary trace format
// read by cmd/ascoma-inspect. Identical runs produce byte-identical files.
func WriteTrace(path string, rec *Recording) error {
	return obs.WriteFile(path, rec)
}

// Sample is one adaptation-timeline point (see Config.SampleInterval).
type Sample = machine.Sample

// Ablation selects an AS-COMA variant for ablation studies.
type Ablation int

const (
	// AblationNone runs the full policy.
	AblationNone Ablation = iota
	// AblationNoSCOMAAlloc disables the S-COMA-preferred initial page
	// allocation (pages start in CC-NUMA mode, as in R-NUMA).
	AblationNoSCOMAAlloc
	// AblationNoBackoff disables the adaptive replacement back-off
	// (relocation behaves like R-NUMA's: fixed threshold, hot eviction).
	AblationNoBackoff
)

// Result is the outcome of one run.
type Result struct {
	*stats.Machine
	// ArchID is the architecture that produced the result.
	ArchID Arch
	// Samples is the adaptation timeline (empty unless
	// Config.SampleInterval was set).
	Samples []Sample
	// PressureCeiling certifies that every pressure in [1,
	// PressureCeiling] gives the same statistics but for the Pressure
	// label (0 = none; see machine.PressureCeiling). It is never encoded,
	// so a result read back from a cache or a reply carries 0.
	PressureCeiling int `json:"-"`
}

// Run executes one simulation.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext executes one simulation under a context. Cancellation is
// polled every few hundred dispatched events, so a mid-run cancel aborts
// within well under a millisecond of simulation work; an already-cancelled
// context returns before any simulation happens. The returned error wraps
// ctx.Err() on cancellation.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	gen, err := workload.New(cfg.Workload, max(cfg.Scale, 1))
	if err != nil {
		return nil, err
	}
	return RunGeneratorContext(ctx, cfg, gen)
}

// RunGenerator executes one simulation on a caller-supplied workload
// generator (for custom workloads built with the workload package).
func RunGenerator(cfg Config, gen workload.Generator) (*Result, error) {
	return RunGeneratorContext(context.Background(), cfg, gen)
}

// RunGeneratorContext is RunGenerator under a context (see RunContext).
func RunGeneratorContext(ctx context.Context, cfg Config, gen workload.Generator) (*Result, error) {
	pol, err := mem.ParsePolicy(cfg.PagePolicy)
	if err != nil {
		return nil, err
	}
	if err := mem.ValidateTiers(cfg.Tiers); err != nil {
		return nil, err
	}
	mcfg := machine.Config{
		Arch:           cfg.Arch,
		Pressure:       cfg.Pressure,
		Params:         cfg.Params,
		Tiers:          cfg.Tiers,
		PagePolicy:     pol,
		MaxCycles:      cfg.MaxCycles,
		Quantum:        cfg.Quantum,
		SampleInterval: cfg.SampleInterval,
		Obs:            cfg.Obs,
	}
	if cfg.Ablation != AblationNone {
		if cfg.Arch != ASCOMA {
			return nil, fmt.Errorf("ascoma: ablations apply only to the AS-COMA architecture, not %v", cfg.Arch)
		}
		variant := core.NoSCOMAAlloc
		if cfg.Ablation == AblationNoBackoff {
			variant = core.NoBackoff
		}
		mcfg.PolicyFactory = func(arch params.Arch, p *params.Params) core.Policy {
			return core.NewASCOMAVariant(p, variant)
		}
	}
	m, err := machine.New(mcfg, gen)
	if err != nil {
		return nil, err
	}
	st, err := m.RunContext(ctx)
	samples, ceiling := m.Samples(), m.PressureCeiling()
	// The machine's dense tables and chunk buffers go back to the arena for
	// the next cell of the grid; st and samples are per-run allocations that
	// Release leaves untouched.
	m.Release()
	if err != nil {
		return nil, err
	}
	return &Result{Machine: st, ArchID: cfg.Arch, Samples: samples, PressureCeiling: ceiling}, nil
}

// Generator re-exports the workload generator interface so applications can
// drive the simulator with custom reference streams.
type Generator = workload.Generator

// Report renders a human-readable summary of the run: execution time, the
// paper's time breakdown, and the miss classification.
func (r *Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s  %s  pressure=%d%%\n", r.Arch, r.Workload, r.Pressure)
	fmt.Fprintf(&b, "  execution time: %d cycles\n", r.ExecTime)

	total := r.SumTime()
	var sum int64
	for _, v := range total {
		sum += v
	}
	fmt.Fprintf(&b, "  time breakdown:")
	for c := stats.TimeCat(0); c < stats.NumTimeCats; c++ {
		pct := 0.0
		if sum > 0 {
			pct = 100 * float64(total[c]) / float64(sum)
		}
		fmt.Fprintf(&b, " %s=%.1f%%", c, pct)
	}
	b.WriteByte('\n')

	misses := r.SumMisses()
	var msum int64
	for _, v := range misses {
		msum += v
	}
	fmt.Fprintf(&b, "  shared misses:  ")
	for c := stats.MissCat(0); c < stats.NumMissCats; c++ {
		pct := 0.0
		if msum > 0 {
			pct = 100 * float64(misses[c]) / float64(msum)
		}
		fmt.Fprintf(&b, " %s=%.1f%%", c, pct)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "  upgrades=%d downgrades=%d relocDenied=%d thrash=%d daemonRuns=%d\n",
		r.Counter(func(n *stats.Node) int64 { return n.Upgrades }),
		r.Counter(func(n *stats.Node) int64 { return n.Downgrades }),
		r.Counter(func(n *stats.Node) int64 { return n.RelocDenied }),
		r.Counter(func(n *stats.Node) int64 { return n.ThrashEvents }),
		r.Counter(func(n *stats.Node) int64 { return n.DaemonRuns }))
	return b.String()
}
