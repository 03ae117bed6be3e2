// Package stats collects and reports the two decompositions the paper's
// figures are built from:
//
//   - the execution-time breakdown of each node (left-hand charts):
//     U-SH-MEM (stalled on shared memory), K-BASE (essential kernel
//     operations), K-OVERHD (architecture-specific kernel operations such
//     as remapping pages and handling relocation interrupts), U-INSTR
//     (user instructions), U-LC-MEM (non-shared memory operations), and
//     SYNC (synchronization);
//
//   - the classification of shared-data cache misses by where they were
//     satisfied (right-hand charts): HOME (local node is the data's home),
//     SCOMA (local page cache), RAC, COLD (cold misses satisfied remotely,
//     both essential and remap-induced), and CONF/CAPC (conflict/capacity
//     misses satisfied remotely).
package stats

import (
	"fmt"
	"sort"
	"strings"
)

// TimeCat is an execution-time category.
type TimeCat int

const (
	UShMem    TimeCat = iota // stalled on shared memory
	KBase                    // essential kernel operations
	KOverhead                // architecture-specific kernel overhead
	UInstr                   // user-level instructions
	ULcMem                   // non-shared (local/private) memory operations
	Sync                     // synchronization
	NumTimeCats
)

var timeCatNames = [...]string{"U-SH-MEM", "K-BASE", "K-OVERHD", "U-INSTR", "U-LC-MEM", "SYNC"}

// String returns the paper's label for the category.
func (c TimeCat) String() string {
	if c < 0 || c >= NumTimeCats {
		return fmt.Sprintf("TimeCat(%d)", int(c))
	}
	return timeCatNames[c]
}

// MissCat classifies where a shared-data miss was satisfied.
type MissCat int

const (
	Home     MissCat = iota // supplied from local DRAM: local node is home
	SComa                   // satisfied from the local S-COMA page cache
	RAC                     // satisfied from the remote access cache
	Cold                    // cold miss satisfied remotely (essential or remap-induced)
	ConfCapc                // conflict/capacity miss satisfied remotely
	NumMissCats
)

var missCatNames = [...]string{"HOME", "SCOMA", "RAC", "COLD", "CONF/CAPC"}

// String returns the paper's label for the category.
func (c MissCat) String() string {
	if c < 0 || c >= NumMissCats {
		return fmt.Sprintf("MissCat(%d)", int(c))
	}
	return missCatNames[c]
}

// Node accumulates the statistics of one node.
//
// Every field must be exported and reach the flattened JSON report — the
// golden checksums hash json.Marshal of this struct, and downstream tooling
// reads the name-keyed view built by counterMap/Report in json.go. Add a
// field here and TestStatsFieldsReachReport fails until it appears there
// too.
type Node struct {
	Time   [NumTimeCats]int64 // cycles per execution-time category
	Misses [NumMissCats]int64 // shared-data miss counts by satisfaction site

	// Event counters used by the tables and by tests.
	SharedRefs      int64 // shared-data references issued
	PrivateRefs     int64 // private-data references issued
	L1Hits          int64 // references satisfied by the L1
	PageFaults      int64 // page faults taken (first access to a page)
	Upgrades        int64 // CC-NUMA -> S-COMA relocations performed
	Downgrades      int64 // S-COMA -> CC-NUMA evictions performed
	Migrations      int64 // pages migrated to this node (MIG-NUMA extension)
	InducedCold     int64 // remotely-satisfied misses that were remap-induced
	DaemonRuns      int64 // pageout-daemon invocations
	DaemonScanned   int64 // pages examined by second chance
	DaemonReclaimed int64 // pages reclaimed by the daemon
	ThrashEvents    int64 // times thrashing was detected (threshold raised)
	RelocDenied     int64 // relocation requests suppressed by back-off
	Invalidations   int64 // coherence invalidations received
	Writebacks      int64 // dirty L1 lines written back
	RemotePagesSeen int64 // distinct remote pages ever accessed
	FinishTime      int64 // cycle at which this node finished its stream
}

// TotalTime returns the sum over time categories (== FinishTime when the
// node never idles outside the accounted categories).
func (n *Node) TotalTime() int64 {
	var t int64
	for _, v := range n.Time {
		t += v
	}
	return t
}

// TotalMisses returns the number of classified shared-data misses.
func (n *Node) TotalMisses() int64 {
	var t int64
	for _, v := range n.Misses {
		t += v
	}
	return t
}

// Machine aggregates per-node statistics for one simulation run.
//
// Like Node, every field is pinned by the golden checksums and must reach
// the serialized report (TestStatsFieldsReachReport; DESIGN.md §9).
type Machine struct {
	Arch     string
	Workload string
	Pressure int // memory pressure in percent
	Nodes    []Node

	// ExecTime is the parallel-phase execution time: the max node finish
	// time.
	ExecTime int64

	// RelocatedPages / RemotePages support Table 6: distinct remote pages
	// whose refetch count ever crossed the initial threshold, and distinct
	// remote pages ever accessed, summed over nodes.
	RelocatedPages int64
	RemotePages    int64
}

// NewMachine returns a Machine for n nodes.
func NewMachine(n int) *Machine { return &Machine{Nodes: make([]Node, n)} }

// SumTime returns machine-wide cycles per time category.
func (m *Machine) SumTime() [NumTimeCats]int64 {
	var s [NumTimeCats]int64
	for i := range m.Nodes {
		for c := TimeCat(0); c < NumTimeCats; c++ {
			s[c] += m.Nodes[i].Time[c]
		}
	}
	return s
}

// SumMisses returns machine-wide miss counts per classification.
func (m *Machine) SumMisses() [NumMissCats]int64 {
	var s [NumMissCats]int64
	for i := range m.Nodes {
		for c := MissCat(0); c < NumMissCats; c++ {
			s[c] += m.Nodes[i].Misses[c]
		}
	}
	return s
}

// Counter sums an arbitrary per-node counter selected by f.
func (m *Machine) Counter(f func(*Node) int64) int64 {
	var s int64
	for i := range m.Nodes {
		s += f(&m.Nodes[i])
	}
	return s
}

// RemoteMisses returns the machine-wide count of misses satisfied remotely
// (COLD + CONF/CAPC), the N_remote + N_cold of the paper's overhead model.
func (m *Machine) RemoteMisses() int64 {
	s := m.SumMisses()
	return s[Cold] + s[ConfCapc]
}

// Table renders rows of labeled int64 columns with right-aligned numbers.
// It is used by the cmd tools to print the paper-style tables.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(vals ...interface{}) {
	row := make([]string, len(vals))
	for i, v := range vals {
		row[i] = fmt.Sprintf("%v", v)
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	width := make([]int, len(t.Header))
	for i, h := range t.Header {
		width[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (no quoting: callers only
// emit labels and numbers).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Header, ","))
	b.WriteByte('\n')
	for _, r := range t.Rows {
		b.WriteString(strings.Join(r, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// BreakdownRow formats a machine's time breakdown normalized to base cycles
// (typically the CC-NUMA execution time) in the order the figures stack
// them. Keys returns the category order.
func BreakdownRow(m *Machine, base int64) []float64 {
	s := m.SumTime()
	out := make([]float64, NumTimeCats)
	if base <= 0 {
		return out
	}
	for c := TimeCat(0); c < NumTimeCats; c++ {
		out[c] = float64(s[c]) / float64(base)
	}
	return out
}

// SortedPercent renders a map name->count as "name pct%" descending, a
// debugging convenience.
func SortedPercent(counts map[string]int64) string {
	var total int64
	//ascoma:allow-nondet commutative sum; order-independent
	for _, v := range counts {
		total += v
	}
	type kv struct {
		k string
		v int64
	}
	list := make([]kv, 0, len(counts))
	//ascoma:allow-nondet entries are collected and sorted below
	for k, v := range counts {
		list = append(list, kv{k, v})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].v != list[j].v {
			return list[i].v > list[j].v
		}
		return list[i].k < list[j].k
	})
	var b strings.Builder
	for i, e := range list {
		if i > 0 {
			b.WriteString(", ")
		}
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(e.v) / float64(total)
		}
		fmt.Fprintf(&b, "%s %.1f%%", e.k, pct)
	}
	return b.String()
}
