package core

import "ascoma/internal/params"

// ASCOMA is the paper's adaptive hybrid policy. Exported (unlike the other
// policies) so tests and the thrashing example can inspect the adaptive
// state.
//
// The two contributions:
//
//  1. S-COMA-preferred allocation: "AS-COMA initially maps pages in S-COMA
//     mode to exploit S-COMA's superior performance at low memory
//     pressures. ... Only when the page cache becomes empty does AS-COMA
//     begin remapping." Faulting remote pages are mapped S-COMA while the
//     free pool has pages and the node is not in pressure mode; afterwards
//     they are mapped CC-NUMA and upgraded only on refetch evidence.
//
//  2. Replacement back-off: the kernel's pageout daemon detects thrashing —
//     "Whenever the pageout daemon is unable to reclaim at least
//     free_target free pages, AS-COMA begins allocating pages in CC-NUMA
//     mode ... In addition, it raises the refetch threshold by a fixed
//     amount ... It also increases the time between successive invocations
//     of the pageout daemon." Repeated thrashing disables relocation
//     entirely ("Under extreme circumstances, AS-COMA goes so far as to
//     disable CC-NUMA -> S-COMA remappings entirely"); a later increase in
//     cold pages lowers the threshold and re-enables relocation.
type ASCOMA struct {
	initial   int
	increment int
	max       int

	// Ablation switches (see ASCOMAVariant): disable one of the two
	// improvements to measure its contribution in isolation.
	numaFirst bool // disable improvement 1: allocate like R-NUMA
	noBackoff bool // disable improvement 2: never adapt or deny

	threshold     int
	pressureMode  bool // allocate new pages CC-NUMA
	relocDisabled bool
	consecThrash  int   // consecutive thrash detections
	healthy       int   // consecutive healthy daemon passes
	failed        int   // consecutive failed daemon passes
	blocked       int   // consecutive pool-dry upgrade attempts
	intervalScale int64 // daemon interval multiplier

	thrashEvents int64
}

// DisableAfter is the number of consecutive thrash detections after which
// AS-COMA stops relocating entirely.
const DisableAfter = 4

// RecoverAfter is the number of consecutive healthy daemon passes (free
// pool restored to free_target) required before pressure mode ends and
// relocation is re-enabled. The hysteresis prevents oscillation: one lucky
// reclaim pass must not restart the churn the back-off just stopped.
const RecoverAfter = 3

// FailTolerance is the number of consecutive failed daemon passes (or
// pool-dry upgrade attempts) required before thrashing is declared. A
// single failure is often scan lag — reference bits cleared this pass make
// pages reclaimable only on the next — and at a program phase boundary the
// very next pass reclaims the newly cold pages; backing off then would
// forfeit the adaptation the architecture exists for.
const FailTolerance = 2

// MaxIntervalScale caps the daemon-interval back-off multiplier.
const MaxIntervalScale = 16

// makeASCOMA builds AS-COMA on p, ablated as v says.
func makeASCOMA(p *params.Params, v ASCOMAVariant) ASCOMA {
	return ASCOMA{
		initial:       p.RefetchThreshold,
		increment:     p.ThresholdIncrement,
		max:           p.ThresholdMax,
		numaFirst:     v == NoSCOMAAlloc,
		noBackoff:     v == NoBackoff,
		threshold:     p.RefetchThreshold,
		intervalScale: 1,
	}
}

// ASCOMAVariant selects an ablated AS-COMA for the Section 5.1 / 5.2
// decomposition: the paper evaluates its two improvements (S-COMA-preferred
// initial allocation; replacement back-off) separately, and these variants
// let the benchmarks do the same.
type ASCOMAVariant int

const (
	// FullASCOMA is the complete policy.
	FullASCOMA ASCOMAVariant = iota
	// NoSCOMAAlloc disables improvement 1: pages are initially mapped in
	// CC-NUMA mode as in R-NUMA, but the adaptive back-off remains.
	NoSCOMAAlloc
	// NoBackoff disables improvement 2: S-COMA-preferred allocation
	// remains, but relocation behaves like R-NUMA's (fixed threshold,
	// hot eviction, no thrash detection).
	NoBackoff
)

// Arch returns params.ASCOMA.
func (*ASCOMA) Arch() params.Arch { return params.ASCOMA }

// InitialSCOMA prefers S-COMA while pages remain in the pool and the node
// has not detected memory pressure.
func (a *ASCOMA) InitialSCOMA(freePages, freeMin int) bool {
	if a.numaFirst {
		return false
	}
	return !a.pressureMode && freePages > 0
}

// PureSCOMA is false: AS-COMA can always fall back to CC-NUMA mappings.
func (*ASCOMA) PureSCOMA() bool { return false }

// RelocationEnabled is false once extreme thrashing disabled remapping.
func (a *ASCOMA) RelocationEnabled() bool { return !a.relocDisabled }

// Threshold returns the current adaptive refetch threshold.
func (a *ASCOMA) Threshold() int { return a.threshold }

// AllowHotEviction is false: replacing one hot page with an equally hot
// page is precisely the churn the back-off exists to prevent. (The
// NoBackoff ablation relocates like R-NUMA and so allows it.)
func (a *ASCOMA) AllowHotEviction() bool { return a.noBackoff }

// NoteUpgradeBlocked treats repeated blocked upgrades (free pool dry at
// the relocation interrupt) as thrashing evidence.
func (a *ASCOMA) NoteUpgradeBlocked() {
	if a.noBackoff {
		return
	}
	a.blocked++
	if a.blocked >= FailTolerance {
		a.blocked = 0
		a.thrash()
	}
}

// NoteEviction is a no-op: AS-COMA's detector is software, in the daemon.
func (*ASCOMA) NoteEviction(uint32, int) {}

// NoteDaemonPass implements the software thrashing detector. A pass that
// leaves the pool below free_target means the daemon could not find enough
// cold pages: raise the threshold, lengthen the daemon interval, and enter
// pressure mode. A pass that refills the pool from abundant cold pages
// (the paper's phase-change signal: "the pageout daemon will detect it by
// detecting an increase in the number of cold pages") lowers the threshold
// toward the initial value and, after a sustained streak, leaves pressure
// mode. Refilling only by scraping — many pages scanned per page reclaimed
// — does not count as recovery.
func (a *ASCOMA) NoteDaemonPass(freeAfter, freeTarget, reclaimed, scanned int) int64 {
	if a.noBackoff {
		return 1
	}
	// Cold pages are "scarce" when the clock hand had to pass over more
	// referenced pages than it reclaimed: the cache is mostly hot, and
	// whatever was evicted is likely to be refaulted soon.
	coldScarce := reclaimed > 0 && scanned > 2*reclaimed
	if freeAfter < freeTarget || coldScarce {
		a.healthy = 0
		a.failed++
		if a.failed >= FailTolerance {
			a.thrash()
			if a.intervalScale < MaxIntervalScale {
				a.intervalScale *= 2
			}
		}
	} else {
		// Cold pages are plentiful again. Recover gradually: the
		// threshold steps back toward its initial value each healthy
		// pass, and pressure mode / disabled relocation lift only after
		// a sustained streak, so a single lucky reclaim cannot restart
		// the churn.
		a.consecThrash = 0
		a.failed = 0
		a.blocked = 0
		a.healthy++
		if a.threshold > a.initial {
			a.threshold -= a.increment
			if a.threshold < a.initial {
				a.threshold = a.initial
			}
		}
		if a.intervalScale > 1 {
			a.intervalScale /= 2
		}
		if a.healthy >= RecoverAfter {
			// Full recovery: the program entered a new phase, so the
			// escalated threshold no longer reflects anything real.
			a.relocDisabled = false
			a.pressureMode = false
			a.intervalScale = 1
			a.threshold = a.initial
		}
	}
	return a.intervalScale
}

func (a *ASCOMA) thrash() {
	a.thrashEvents++
	a.consecThrash++
	a.healthy = 0
	a.pressureMode = true
	if a.threshold < a.max {
		a.threshold += a.increment
	}
	if a.consecThrash >= DisableAfter {
		a.relocDisabled = true
	}
}

// ThrashEvents returns the number of thrash detections so far.
func (a *ASCOMA) ThrashEvents() int64 { return a.thrashEvents }

// PressureMode reports whether the node currently allocates faulting pages
// in CC-NUMA mode.
func (a *ASCOMA) PressureMode() bool { return a.pressureMode }

// RelocationDisabled reports whether remapping has been shut off entirely.
func (a *ASCOMA) RelocationDisabled() bool { return a.relocDisabled }

// IntervalScale returns the current daemon-interval multiplier.
func (a *ASCOMA) IntervalScale() int64 { return a.intervalScale }
