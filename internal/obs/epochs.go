package obs

// Probe identifies one sampled per-node series. Values are part of the
// trace format (codec.go); append, never renumber.
type Probe uint8

const (
	// ProbeFreePages is the node's free page-pool depth.
	ProbeFreePages Probe = iota
	// ProbeSComaPages is the node's S-COMA page-cache occupancy.
	ProbeSComaPages
	// ProbeThreshold is the node's current relocation threshold.
	ProbeThreshold
	// ProbeUpgrades is the node's cumulative CC-NUMA -> S-COMA remaps.
	ProbeUpgrades
	// ProbeDowngrades is the node's cumulative S-COMA evictions.
	ProbeDowngrades
	// ProbeShMemStall is the node's cumulative shared-memory stall cycles
	// (the U-SH-MEM time category — the miss-latency integral).
	ProbeShMemStall
	// ProbeRemoteMisses is the node's cumulative remotely satisfied misses
	// (COLD + CONF/CAPC).
	ProbeRemoteMisses

	// NumProbes is the number of defined probe series.
	NumProbes
)

var probeNames = [NumProbes]string{
	ProbeFreePages:    "free_pages",
	ProbeSComaPages:   "scoma_pages",
	ProbeThreshold:    "threshold",
	ProbeUpgrades:     "upgrades",
	ProbeDowngrades:   "downgrades",
	ProbeShMemStall:   "shmem_stall_cycles",
	ProbeRemoteMisses: "remote_misses",
}

// String returns the probe's series name.
func (p Probe) String() string {
	if p < NumProbes {
		return probeNames[p]
	}
	return "unknown"
}

// Epochs collects the periodic per-node samples of one run into compact
// column-major time series: for each probe, one int64 per (epoch, node).
// The machine drives it — Begin once per epoch boundary, then Set for every
// (probe, node) — so the layout is always rectangular.
type Epochs struct {
	// Interval is the sampling period in simulated cycles.
	Interval int64

	// OnEpoch, when non-nil, is invoked by Commit after each epoch row is
	// fully sampled, with the completed epoch's index. It runs on the
	// simulation goroutine at a deterministic point of the event order, so
	// it may read the completed rows (Time/Value/Series) race-free — but it
	// adds host latency to the run, so keep it cheap (snapshot and hand
	// off). It must not mutate the Epochs. The jobs layer uses it to
	// stream per-epoch progress to clients while the run executes.
	OnEpoch func(epoch int)

	nodes int
	times []int64 // cycle stamp of each epoch
	// vals[p] holds len(times)*nodes samples, epoch-major: the value of
	// probe p at (epoch e, node n) sits at vals[p][e*nodes+n].
	vals [NumProbes][]int64
}

// NewEpochs builds an epoch sampler with the given cycle interval. The node
// count is bound by the machine via SetNodes before the first sample.
func NewEpochs(interval int64) *Epochs {
	return &Epochs{Interval: interval}
}

// SetNodes binds the machine's node count and drops any samples from an
// earlier run, keeping the slice storage.
func (e *Epochs) SetNodes(n int) {
	e.nodes = n
	e.times = e.times[:0]
	for p := range e.vals {
		e.vals[p] = e.vals[p][:0]
	}
}

// Nodes returns the bound node count.
func (e *Epochs) Nodes() int { return e.nodes }

// Len returns the number of completed epochs.
func (e *Epochs) Len() int { return len(e.times) }

// Time returns the cycle stamp of epoch i.
func (e *Epochs) Time(i int) int64 { return e.times[i] }

// Begin opens a new epoch stamped at cycle now, extending every series by
// one zeroed row.
func (e *Epochs) Begin(now int64) {
	e.times = append(e.times, now)
	for p := range e.vals {
		e.vals[p] = append(e.vals[p], make([]int64, e.nodes)...)
	}
}

// Set records probe p's value for node at the current (latest) epoch.
func (e *Epochs) Set(p Probe, node int, v int64) {
	e.vals[p][(len(e.times)-1)*e.nodes+node] = v
}

// Commit marks the latest epoch row complete. The machine calls it after
// the last Set of each row; it fires OnEpoch when a sink is attached and
// is free otherwise.
func (e *Epochs) Commit() {
	if e.OnEpoch != nil {
		e.OnEpoch(len(e.times) - 1)
	}
}

// Value returns probe p's sample at (epoch, node).
func (e *Epochs) Value(p Probe, epoch, node int) int64 {
	return e.vals[p][epoch*e.nodes+node]
}

// Series returns probe p's samples for one node across all epochs as a
// fresh slice — the per-node trajectory ascoma-inspect sparkline-renders.
func (e *Epochs) Series(p Probe, node int) []int64 {
	out := make([]int64, len(e.times))
	for i := range out {
		out[i] = e.vals[p][i*e.nodes+node]
	}
	return out
}
