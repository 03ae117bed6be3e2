package core

import "ascoma/internal/params"

// Migrator marks a policy whose refetch-threshold response is page
// migration (changing the page's home) rather than S-COMA replication. The
// machine type-asserts for this marker at the relocation interrupt.
type Migrator interface {
	// Migrates reports whether threshold crossings should migrate.
	Migrates() bool
	// NoteMigration records a completed migration of a page this node
	// now homes; the policy can rate-limit ping-ponging with it.
	NoteMigration()
}

// mignuma is the dynamic page-migration baseline (an extension beyond the
// paper's five architectures): a CC-NUMA whose only remedy for hot remote
// pages is to move them. It shares R-NUMA's detection mechanism — the
// per-page per-node refetch counters — but not its remedy, so comparing
// the two isolates replication (page caching) from placement (migration).
//
// A simple hysteresis models the standard anti-ping-pong guard of real
// migration kernels: after a migration the threshold for the *next*
// migration doubles, decaying back by one increment per quiet period.
type mignuma struct {
	initial   int
	increment int

	threshold  int
	migrations int64
}

func makeMIGNUMA(p *params.Params) mignuma {
	return mignuma{
		initial:   p.RefetchThreshold,
		increment: p.ThresholdIncrement,
		threshold: p.RefetchThreshold,
	}
}

func (*mignuma) Arch() params.Arch          { return params.MIGNUMA }
func (*mignuma) InitialSCOMA(_, _ int) bool { return false }
func (*mignuma) PureSCOMA() bool            { return false }
func (*mignuma) RelocationEnabled() bool    { return true }
func (m *mignuma) Threshold() int           { return m.threshold }
func (*mignuma) AllowHotEviction() bool     { return false }
func (*mignuma) NoteUpgradeBlocked()        {}
func (*mignuma) NoteEviction(uint32, int)   {}
func (m *mignuma) ThrashEvents() int64      { return 0 }

// Migrates satisfies Migrator.
func (*mignuma) Migrates() bool { return true }

// NoteMigration raises the next-migration threshold by one increment
// (anti-ping-pong); quiet periods decay it back, so a node migrating a
// stream of genuinely mis-placed pages is barely slowed while a page
// bouncing between writers faces an ever-higher bar.
func (m *mignuma) NoteMigration() {
	m.migrations++
	if m.threshold < 1<<16 {
		m.threshold += m.increment
	}
}

// NoteDaemonPass decays the anti-ping-pong threshold during quiet periods.
func (m *mignuma) NoteDaemonPass(_, _, _, _ int) int64 {
	if m.threshold > m.initial {
		m.threshold -= m.increment
		if m.threshold < m.initial {
			m.threshold = m.initial
		}
	}
	return 1
}
