package main

import (
	"bytes"
	"fmt"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"ascoma/internal/machine"
	"ascoma/internal/runcache"
	"ascoma/internal/stats"
)

// load is one benchmark workload. setup is the host warm-up a user
// pays once per process and is timed as setup_s; prepare computes the
// reference outputs its checks need, untimed; pass runs one fixed unit of
// work, records its operations into ph and returns the time to charge to
// the pass (verification stays outside it); finish runs the checks that
// can only happen once the phase is over.
type load interface {
	setup(sp *spans) error
	prepare() error
	pass(ph *phase) (time.Duration, error)
	finish(ph *phase) error
	close()
}

// phase holds everything measured during one timed phase: a run of
// consecutive passes, untraced or traced.
type phase struct {
	tally
	sp *spans // nil when untraced

	mu     sync.Mutex
	passes []time.Duration
	ops    []float64 // per-operation latency, ms
	refs   int64     // simulated references covered by the passes
	sim    simCounts
	rc     runcache.Stats
	served []int64 // serve: responses per request index

	elapsed time.Duration
	peakRSS int64 // the process's peak resident set so far, bytes

	// Host counters, traced phases only.
	profile               []byte
	cpu                   time.Duration
	allocBytes, allocObjs uint64
	gcCycles              uint64
}

// op records one operation's latency.
func (ph *phase) op(d time.Duration) {
	ph.mu.Lock()
	ph.ops = append(ph.ops, ms(d))
	ph.mu.Unlock()
}

// addRun folds one simulated run's statistics (and, when m is non-nil,
// its resource utilization) into the phase's counts.
func (ph *phase) addRun(st *stats.Machine, m *machine.Machine) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.refs += ph.sim.add(st)
	if m != nil {
		for i := range st.Nodes {
			b, mm, d, p := m.Utilization(i)
			ph.sim.busBusy += b
			ph.sim.memBusy += mm
			ph.sim.dirBusy += d
			ph.sim.portBusy += p
		}
	}
}

func (ph *phase) addRuncache(s runcache.Stats) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.rc.MemHits += s.MemHits
	ph.rc.DiskHits += s.DiskHits
	ph.rc.RemoteHits += s.RemoteHits
	ph.rc.Dedups += s.Dedups
	ph.rc.Sims += s.Sims
	ph.rc.Errors += s.Errors
}

// simCounts sums the simulated statistics behind the per-reference layer
// metrics.
type simCounts struct {
	refs, l1Hits                                    int64
	misses                                          [stats.NumMissCats]int64
	invalidations, writebacks, pageFaults           int64
	daemonRuns, scanned, reclaimed                  int64
	upgrades, downgrades, relocDenied, thrashEvents int64
	busBusy, memBusy, dirBusy, portBusy             int64
}

// add folds st in and returns its reference count.
func (c *simCounts) add(st *stats.Machine) int64 {
	var refs int64
	for i := range st.Nodes {
		n := &st.Nodes[i]
		refs += n.SharedRefs + n.PrivateRefs
		c.l1Hits += n.L1Hits
		for k, v := range n.Misses {
			c.misses[k] += v
		}
		c.invalidations += n.Invalidations
		c.writebacks += n.Writebacks
		c.pageFaults += n.PageFaults
		c.daemonRuns += n.DaemonRuns
		c.scanned += n.DaemonScanned
		c.reclaimed += n.DaemonReclaimed
		c.upgrades += n.Upgrades
		c.downgrades += n.Downgrades
		c.relocDenied += n.RelocDenied
		c.thrashEvents += n.ThrashEvents
	}
	c.refs += refs
	return refs
}

// measure runs passes of w for at least d (and at least one pass). A
// traced phase also records spans, a CPU profile, allocation and GC
// counts, and process CPU time. When idle is non-nil it is called after
// every pass with the share of d done so far; the time it takes is not
// phase time.
func measure(w load, d time.Duration, traced bool, idle func(done float64) error) (*phase, error) {
	ph := &phase{}
	var prof bytes.Buffer
	var before hostCounters
	if traced {
		ph.sp = newSpans()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		before = readHost()
	}
	start := time.Now()
	var paused time.Duration
	for len(ph.passes) == 0 || time.Since(start)-paused < d {
		pd, err := w.pass(ph)
		if err == nil && idle != nil {
			t := time.Now()
			err = idle(float64(t.Sub(start)-paused) / float64(d))
			paused += time.Since(t)
		}
		if err != nil {
			if traced {
				pprof.StopCPUProfile()
			}
			return nil, err
		}
		ph.passes = append(ph.passes, pd)
	}
	ph.elapsed = time.Since(start) - paused
	ph.peakRSS = readHost().peakRSS
	if traced {
		after := readHost()
		pprof.StopCPUProfile()
		ph.profile = prof.Bytes()
		ph.cpu = after.cpu - before.cpu
		ph.allocBytes = after.allocBytes - before.allocBytes
		ph.allocObjs = after.allocObjs - before.allocObjs
		ph.gcCycles = after.gcCycles - before.gcCycles
	}
	return ph, w.finish(ph)
}

type hostCounters struct {
	cpu                   time.Duration
	peakRSS               int64
	allocBytes, allocObjs uint64
	gcCycles              uint64
}

var hostMetrics = []string{"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects", "/gc/cycles/total:gc-cycles"}

// readHost samples the process's CPU time (user+system, all threads), its
// peak resident set, and the runtime's cumulative allocation and GC
// counters.
func readHost() hostCounters {
	var ru syscall.Rusage
	var h hostCounters
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		h.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		h.peakRSS = ru.Maxrss << 10 // Linux reports kilobytes
	}
	s := make([]metrics.Sample, len(hostMetrics))
	for i, name := range hostMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	h.allocBytes, h.allocObjs, h.gcCycles = s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()
	return h
}
