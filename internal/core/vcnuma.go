package core

import "ascoma/internal/params"

// vcnuma models the VC-NUMA relocation strategy: R-NUMA-style upgrades plus
// the hardware thrashing-detection scheme of Moga & Dubois. "Their scheme
// requires a local refetch counter per S-COMA page, a programmable break
// even number that depends on the network latency and overhead of
// relocating pages, and an evaluation threshold that depends on the total
// number of free S-COMA pages in the page cache." The detector is evaluated
// lazily: "VC-NUMA only checks its backoff indicator when an average of two
// replacements per cached page have occurred, which is not sufficiently
// often to avoid thrashing." That sluggishness is exactly what the paper's
// results show, so it is modeled faithfully.
//
// Per the paper's methodology the victim-cache hardware itself is NOT
// modeled ("the results reported for VC-NUMA are only relevant for
// evaluating its relocation strategy").
type vcnuma struct {
	initial   int
	increment int
	breakEven int
	evalEvery int // replacements-per-cached-page between evaluations
	cap       int // hardware ceiling on the escalated threshold

	threshold int

	// Accumulated since the last evaluation.
	evictions    int
	refetchTotal uint64

	thrashEvents int64
}

func makeVCNUMA(p *params.Params) vcnuma {
	cap := p.VCThresholdCap
	if cap < p.RefetchThreshold {
		cap = p.RefetchThreshold
	}
	return vcnuma{
		initial:   p.RefetchThreshold,
		increment: p.ThresholdIncrement,
		breakEven: p.VCBreakEven,
		evalEvery: p.VCEvalReplacements,
		cap:       cap,
		threshold: p.RefetchThreshold,
	}
}

func (*vcnuma) Arch() params.Arch          { return params.VCNUMA }
func (*vcnuma) InitialSCOMA(_, _ int) bool { return false }
func (*vcnuma) PureSCOMA() bool            { return false }
func (*vcnuma) RelocationEnabled() bool    { return true }
func (v *vcnuma) Threshold() int           { return v.threshold }
func (*vcnuma) AllowHotEviction() bool     { return true }
func (*vcnuma) NoteUpgradeBlocked()        {}
func (v *vcnuma) ThrashEvents() int64      { return v.thrashEvents }

// NoteEviction accumulates the victim's page-cache hit count; once an
// average of evalEvery replacements per cached page have occurred, the
// detector compares the mean hits a victim earned while cached against the
// break-even number (the relocation cost expressed in saved remote misses).
// Victims evicted before breaking even indicate the relocation machinery is
// churning pages faster than it pays off, so the threshold is raised;
// otherwise it decays back toward the initial value.
func (v *vcnuma) NoteEviction(victimHits uint32, cachedPages int) {
	v.evictions++
	v.refetchTotal += uint64(victimHits)
	evalAt := v.evalEvery * cachedPages
	if evalAt < 1 {
		evalAt = 1
	}
	if v.evictions < evalAt {
		return
	}
	avg := float64(v.refetchTotal) / float64(v.evictions)
	if avg < float64(v.breakEven) {
		// The counters backing the detector are narrow hardware fields,
		// so the escalated threshold saturates: VC-NUMA can slow its
		// churn but, unlike AS-COMA, never stops it outright.
		if v.threshold+v.increment <= v.cap {
			v.threshold += v.increment
		}
		v.thrashEvents++
	} else if v.threshold > v.initial {
		v.threshold -= v.increment
		if v.threshold < v.initial {
			v.threshold = v.initial
		}
	}
	v.evictions = 0
	v.refetchTotal = 0
}

func (*vcnuma) NoteDaemonPass(_, _, _, _ int) int64 { return 1 }
