package stats

// JSONReport is a flattened, name-keyed view of a run's statistics for
// machine consumption (cmd/ascoma-sim -json). The category arrays become
// maps keyed by the paper's labels so downstream tooling does not depend
// on enum ordering.
type JSONReport struct {
	Arch     string `json:"arch"`
	Workload string `json:"workload"`
	Pressure int    `json:"pressurePct"`
	// ExecTime is the parallel-phase execution time in cycles.
	ExecTime int64 `json:"execTimeCycles"`

	Time     map[string]int64 `json:"timeCycles"`
	Misses   map[string]int64 `json:"misses"`
	Counters map[string]int64 `json:"counters"`

	Nodes []JSONNode `json:"nodes"`
}

// JSONNode is one node's statistics.
type JSONNode struct {
	Finish   int64            `json:"finishCycles"`
	Time     map[string]int64 `json:"timeCycles"`
	Misses   map[string]int64 `json:"misses"`
	Counters map[string]int64 `json:"counters"`
}

func timeMap(t [NumTimeCats]int64) map[string]int64 {
	out := make(map[string]int64, NumTimeCats)
	for c := TimeCat(0); c < NumTimeCats; c++ {
		out[c.String()] = t[c]
	}
	return out
}

func missMap(t [NumMissCats]int64) map[string]int64 {
	out := make(map[string]int64, NumMissCats)
	for c := MissCat(0); c < NumMissCats; c++ {
		out[c.String()] = t[c]
	}
	return out
}

// counterMap flattens a node's scalar counters by name. A counter missing
// here never reaches -json consumers, and TestStatsFieldsReachReport
// fails.
func counterMap(n *Node) map[string]int64 {
	return map[string]int64{
		"sharedRefs":      n.SharedRefs,
		"privateRefs":     n.PrivateRefs,
		"l1Hits":          n.L1Hits,
		"pageFaults":      n.PageFaults,
		"upgrades":        n.Upgrades,
		"downgrades":      n.Downgrades,
		"migrations":      n.Migrations,
		"inducedCold":     n.InducedCold,
		"daemonRuns":      n.DaemonRuns,
		"daemonScanned":   n.DaemonScanned,
		"daemonReclaimed": n.DaemonReclaimed,
		"thrashEvents":    n.ThrashEvents,
		"relocDenied":     n.RelocDenied,
		"invalidations":   n.Invalidations,
		"writebacks":      n.Writebacks,
		"remotePagesSeen": n.RemotePagesSeen,
	}
}

// Report builds the JSON view of a finished run.
func Report(m *Machine) JSONReport {
	r := JSONReport{
		Arch:     m.Arch,
		Workload: m.Workload,
		Pressure: m.Pressure,
		ExecTime: m.ExecTime,
		Time:     timeMap(m.SumTime()),
		Misses:   missMap(m.SumMisses()),
		Counters: map[string]int64{
			"remotePages":    m.RemotePages,
			"relocatedPages": m.RelocatedPages,
		},
	}
	agg := map[string]int64{}
	for i := range m.Nodes {
		n := &m.Nodes[i]
		r.Nodes = append(r.Nodes, JSONNode{
			Finish:   n.FinishTime,
			Time:     timeMap(n.Time),
			Misses:   missMap(n.Misses),
			Counters: counterMap(n),
		})
		//ascoma:allow-nondet accumulates into a map; commutative, order-independent
		for k, v := range counterMap(n) {
			agg[k] += v
		}
	}
	//ascoma:allow-nondet copies map to map; order-independent
	for k, v := range agg {
		r.Counters[k] = v
	}
	return r
}
