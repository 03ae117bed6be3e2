package machine

import (
	"ascoma/internal/core"
	"ascoma/internal/vm"
)

// nodePages returns a node's physical page count at the given memory
// pressure: the resident set (home plus private pages) fills pressure% of
// it, and at least one page is always left for the free pool.
func nodePages(resident, pressure int) int {
	return max((resident*100+pressure-1)/pressure, resident+1)
}

// PressureCeiling returns the highest pressure whose simulation is
// bit-identical to this finished run in every statistic but the Pressure
// label, or 0 when the run certifies nothing. Call it after Run and before
// Release.
//
// Pressure P sizes only the free pool: pool(P) = nodePages(P) − resident
// pages, with free_min and free_target scaled from nodePages(P). At
// another pressure P' the same event sequence would leave the pool
// d = pool(P) − pool(P') pages lower at every instant. Every read of the
// pool's size is one of:
//
//   - pageFault: InitialSCOMA(free, free_min) (AS-COMA maps S-COMA while
//     free > 0) and the early daemon wake on free < free_min;
//   - runDaemon: the wake branch on free < free_min, the healthy branch on
//     free >= free_target, and NoteDaemonPass, which compares free with
//     free_target;
//   - the empty-pool failures of MapSCOMA, Upgrade and AdoptHomePage.
//
// If the pool's low-water mark lw (vm.LowFree) is at least free_target(P)
// on every node, each of these reads has a fixed outcome in this run: the
// daemon never wakes, the healthy branch always runs, AS-COMA's pool is
// never empty, and no allocation fails. The same holds at P' when
// lw − d >= free_target(P'), because the pool there never drops below that.
// So both runs take the same branch at every read, by induction over the
// event sequence, and produce the same statistics. The scan below stops at
// the first failing P'; below P the test holds whenever it holds at P,
// since pool(P') − free_target(P') grows with the node's page count when
// both thresholds are at most 100%. The run is therefore identical at
// every pressure in [1, ceiling].
//
// The argument assumes the policy reads the pool only through these
// comparisons, as every policy in internal/core does. Runs whose outputs
// carry the pool's size, or that attach extra checks, certify nothing (see
// certifies).
func (m *Machine) PressureCeiling() int {
	c := &m.cfg
	if !m.certifies() {
		return 0
	}
	resident := m.gen.HomePagesPerNode() + m.gen.PrivatePagesPerNode()
	pool := func(p int) int { return nodePages(resident, p) - resident }
	target := func(p int) int {
		_, t := vm.Thresholds(nodePages(resident, p), m.p.FreeMinPct, m.p.FreeTargetPct)
		return t
	}
	lw := pool(c.Pressure)
	for _, nd := range m.nodes {
		lw = min(lw, nd.vmm.LowFree())
	}
	if lw < target(c.Pressure) {
		return 0
	}
	ceiling := c.Pressure
	for q := ceiling + 1; q <= 99 && lw-pool(c.Pressure)+pool(q) >= target(q); q++ {
		ceiling = q
	}
	return ceiling
}

// certifies reports whether the run's configuration lets it certify other
// cells at all. Observed runs (Obs) and sampled runs (SampleInterval) carry
// the pool's size and the policy's threshold in their outputs;
// and coherence-checked runs attach extra checks.
func (m *Machine) certifies() bool {
	c := &m.cfg
	return c.Obs == nil && c.SampleInterval == 0 && !c.CheckCoherence
}

// SameArchs returns the architectures other than this run's whose
// simulation of the same configuration is bit-identical to this finished
// run in every statistic but the Arch label, at this run's pressure and at
// every pressure up to PressureCeiling. Call it after Run and before
// Release.
//
// The machine reads the architecture only through each node's policy and
// the Arch label, and every policy query goes through the node's core.Set.
// B is in the result when, on every node, B's shadow policy answered every
// query of this run with the outcome the primary returned, and ended with
// the same ThrashEvents. Every Note* call reached B's shadow with the
// arguments its own run would pass, and the shadow starts in the state
// New gives B's policy. Compare a run of B with this one, by induction over
// the event sequence: while both have executed the same events, the
// machines are in the same state and B's policy is in its shadow's state,
// so B answers the next query as its shadow did, which is as the primary
// did, and both runs execute the same next event. The runs are therefore
// identical event for event, and ThrashEvents, the one statistic the
// policy reports itself, agrees at the end. The comparison is of the
// outcome the machine branches on, not of raw answers: relocation is
// RelocationEnabled() && count >= Threshold(), so CC-NUMA, which never
// relocates, agrees with VC-NUMA while no page reaches VC-NUMA's
// threshold.
//
// The pressure axis composes with this. Up to PressureCeiling, every read
// of the pool has a fixed outcome in this run, and so at P' for every
// policy in internal/core (see PressureCeiling): B's shadow would answer
// this run at P' as it answered here. So B at P' equals this run at P',
// which equals this run.
//
// Runs that certify no pressure by configuration (see certifies) certify
// no architecture either, and neither do runs of an ablated AS-COMA: no
// architecture's run matches an ablation's, so the set shadows nothing
// (core.Set.Reset).
func (m *Machine) SameArchs() core.ArchSet {
	if !m.certifies() {
		return 0
	}
	same := ^core.ArchSet(0)
	for _, nd := range m.nodes {
		same &= nd.pols.Same()
	}
	return same
}
