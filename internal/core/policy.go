// Package core implements the page allocation and replacement policies that
// distinguish the five simulated memory architectures. This is the paper's
// primary contribution: AS-COMA's two improvements over R-NUMA and VC-NUMA
// are (1) an allocation policy that prefers S-COMA pages at low memory
// pressure, and (2) a replacement policy that dynamically backs off the
// rate of CC-NUMA -> S-COMA remappings at high memory pressure, to the
// point of disabling remapping entirely.
//
// A Policy instance holds one node's adaptive state; the machine consults
// it at each decision point (page fault, refetch-threshold crossing,
// upgrade without a free page, eviction, and pageout-daemon completion).
package core

import "ascoma/internal/params"

// Policy is one node's architecture policy. Implementations are not safe
// for concurrent use; the simulator is single-threaded per machine.
type Policy interface {
	// Arch identifies the architecture.
	Arch() params.Arch

	// InitialSCOMA reports whether a faulting remote page should be
	// mapped in S-COMA mode (true) or CC-NUMA mode (false), given the
	// node's current free pool.
	InitialSCOMA(freePages, freeMin int) bool

	// PureSCOMA reports whether remote pages can only be accessed when
	// backed by a local page (pure S-COMA semantics: a fault with an
	// empty pool must synchronously evict a victim).
	PureSCOMA() bool

	// RelocationEnabled reports whether CC-NUMA -> S-COMA upgrades are
	// currently permitted at all.
	RelocationEnabled() bool

	// Threshold returns the current remote-refetch count that triggers a
	// relocation interrupt.
	Threshold() int

	// AllowHotEviction reports whether an upgrade may evict a victim
	// whose reference bit is still set (i.e. replace one hot page with
	// another). R-NUMA "always upgrades pages to S-COMA mode when their
	// refetch threshold is exceeded, even if it must evict another hot
	// page to do so"; AS-COMA refuses.
	AllowHotEviction() bool

	// NoteUpgradeBlocked is called when an upgrade was abandoned because
	// no free page and no cold victim existed. AS-COMA treats this as
	// thrashing evidence.
	NoteUpgradeBlocked()

	// NoteEviction is called after an S-COMA page was replaced, with the
	// number of misses the victim satisfied from the page cache while it
	// was mapped (the savings it earned) and the number of currently
	// cached S-COMA pages. VC-NUMA's hardware thrashing detector feeds
	// on this: a victim that never broke even indicates churn.
	NoteEviction(victimHits uint32, cachedPages int)

	// NoteDaemonPass is called after each pageout-daemon run with the
	// pool size after the pass, the free_target, the number of pages
	// reclaimed, and the number of pages the second-chance scan examined
	// (the cold-page density signal: many scans per reclaim means cold
	// pages are scarce). It returns the scale factor (>= 1) to apply to
	// the daemon's base wake-up interval; AS-COMA lengthens the interval
	// under thrashing.
	NoteDaemonPass(freeAfter, freeTarget, reclaimed, scanned int) int64

	// ThrashEvents returns how many times the policy has detected
	// thrashing (threshold raises), for the statistics report.
	ThrashEvents() int64
}

// New returns a fresh per-node policy for the given architecture.
func New(arch params.Arch, p *params.Params) Policy {
	switch arch {
	case params.CCNUMA:
		return &ccnuma{}
	case params.SCOMA:
		return &scoma{}
	case params.RNUMA:
		return &rnuma{threshold: p.RefetchThreshold}
	case params.VCNUMA:
		v := makeVCNUMA(p)
		return &v
	case params.ASCOMA:
		a := makeASCOMA(p, FullASCOMA)
		return &a
	case params.MIGNUMA:
		m := makeMIGNUMA(p)
		return &m
	}
	panic("core: unknown architecture")
}

// ccnuma never replicates remote pages locally and never remaps.
type ccnuma struct{}

func (*ccnuma) Arch() params.Arch                   { return params.CCNUMA }
func (*ccnuma) InitialSCOMA(_, _ int) bool          { return false }
func (*ccnuma) PureSCOMA() bool                     { return false }
func (*ccnuma) RelocationEnabled() bool             { return false }
func (*ccnuma) Threshold() int                      { return 1 << 30 }
func (*ccnuma) AllowHotEviction() bool              { return false }
func (*ccnuma) NoteUpgradeBlocked()                 {}
func (*ccnuma) NoteEviction(uint32, int)            {}
func (*ccnuma) NoteDaemonPass(_, _, _, _ int) int64 { return 1 }
func (*ccnuma) ThrashEvents() int64                 { return 0 }

// scoma maps every remote page into the page cache; when the pool is empty
// the fault handler must synchronously replace another S-COMA page, which
// is where pure S-COMA's thrashing comes from.
type scoma struct{}

func (*scoma) Arch() params.Arch                   { return params.SCOMA }
func (*scoma) InitialSCOMA(_, _ int) bool          { return true }
func (*scoma) PureSCOMA() bool                     { return true }
func (*scoma) RelocationEnabled() bool             { return false }
func (*scoma) Threshold() int                      { return 1 << 30 }
func (*scoma) AllowHotEviction() bool              { return true }
func (*scoma) NoteUpgradeBlocked()                 {}
func (*scoma) NoteEviction(uint32, int)            {}
func (*scoma) NoteDaemonPass(_, _, _, _ int) int64 { return 1 }
func (*scoma) ThrashEvents() int64                 { return 0 }

// rnuma: all pages start CC-NUMA; a fixed refetch threshold triggers an
// upgrade, which always proceeds, evicting hot victims if necessary. No
// back-off of any kind.
type rnuma struct {
	threshold int
}

func (*rnuma) Arch() params.Arch                   { return params.RNUMA }
func (*rnuma) InitialSCOMA(_, _ int) bool          { return false }
func (*rnuma) PureSCOMA() bool                     { return false }
func (*rnuma) RelocationEnabled() bool             { return true }
func (r *rnuma) Threshold() int                    { return r.threshold }
func (*rnuma) AllowHotEviction() bool              { return true }
func (*rnuma) NoteUpgradeBlocked()                 {}
func (*rnuma) NoteEviction(uint32, int)            {}
func (*rnuma) NoteDaemonPass(_, _, _, _ int) int64 { return 1 }
func (*rnuma) ThrashEvents() int64                 { return 0 }
