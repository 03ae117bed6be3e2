// Package obs is the simulator's observability layer: a deterministic
// flight recorder of cycle-stamped adaptation events, periodic epoch probes
// sampling per-node adaptive state into compact time series, and a
// process-level metrics registry with Prometheus text exposition.
//
// The recorder and the epoch probes observe the *simulated* machine: every
// record is stamped with the simulated cycle clock, never the wall clock,
// and emission changes no simulated cost, so an identical configuration
// produces a byte-identical trace on every run (the golden-determinism
// matrix holds enabled and disabled recordings to the same checksums). That
// makes a recording a regression oracle for the adaptation policy: any
// change to when the pageout daemon wakes, when the back-off raises the
// relocation threshold, or which pages upgrade shows up as a trace diff.
//
// The metrics registry is the opposite kind of instrument: process-level,
// wall-clock-adjacent, concurrency-safe counters/gauges/histograms that
// cmd/ascoma-serve, cmd/sweep, and internal/runcache publish into. It never
// feeds the simulation, so it lives outside the determinism contract (its
// exposition sorts families and series before rendering, so the *output* is
// still stable).
package obs

import "ascoma/internal/workload"

// Recording bundles the per-run observation instruments handed to one
// simulation. Any field may be nil: a nil Events skips event recording, a
// nil Epochs skips epoch sampling, a nil Refs stores no reference streams.
// A Recording must not be shared between concurrent runs — the machine
// writes into it single-threadedly.
type Recording struct {
	// Events is the flight recorder receiving cycle-stamped adaptation
	// events (page upgrades/downgrades, daemon wakeups, TLB shootdowns,
	// threshold transitions, pool-level crossings, refetch-hot pages).
	Events *Recorder
	// Epochs receives the periodic per-node samples (free-pool depth,
	// S-COMA occupancy, relocation threshold, miss-latency counters).
	Epochs *Epochs
	// Refs carries the run's per-node reference streams and page
	// placement, so a trace file can be replayed bit-identically under any
	// configuration (ascoma-sim -refs records, -replay replays). The
	// machine never reads or writes it.
	Refs *workload.Trace
}

// NewRecording builds a Recording with an event ring of eventCap entries
// (eventCap <= 0 selects DefaultEventCap) and, when epochInterval > 0,
// epoch probes sampling every epochInterval cycles.
func NewRecording(eventCap int, epochInterval int64) *Recording {
	r := &Recording{Events: NewRecorder(eventCap)}
	if epochInterval > 0 {
		r.Epochs = NewEpochs(epochInterval)
	}
	return r
}
