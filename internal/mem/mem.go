// Package mem models a node's physical memory as a set of asymmetric
// tiers of interleaved banks, each bank fronted by a DRAM row buffer.
//
// A Memory has 1..MaxTiers tiers (fast DRAM first, slow/NVM-like last),
// each with its own bank set, capacity share, and read/write latencies —
// the inter- and intra-memory asymmetries of Song et al. — and an optional
// row-buffer page policy per HAPPY: under the open policy a bank keeps
// its last row active, so a same-row access skips the activate (75% of
// the base latency) while a different row pays precharge+activate (150%);
// the closed policy precharges after every access (every access pays the
// plain activate, the base latency); the hybrid policy keeps a 2-bit
// saturating row-reuse predictor per bank and leaves the row open only
// when reuse is predicted.
//
// The paper's uniform local memory is the one-tier case: a single tier
// at Params.LocalMemCycles with PolicyNone serves every access exactly
// as a plain sim.Banked would, and the golden-checksum matrix pins it.
//
// Everything is deterministic and allocation-free on the access path:
// tier and row state live in fixed arrays and slices sized at Configure
// time, and the policy arithmetic is integer-only.
package mem

import (
	"fmt"
	"strconv"
	"strings"

	"ascoma/internal/params"
	"ascoma/internal/sim"
)

// MaxTiers bounds the tier count so per-tier state can live in fixed
// arrays on the Memory struct.
const MaxTiers = 4

// RowBlocks is the number of consecutive blocks sharing a DRAM row
// (8 x 128-byte blocks = 1 KB rows): the row index of a block key is
// key >> RowShift.
const (
	RowBlocks = 8
	RowShift  = 3
)

// TierSpec describes one memory tier. Tiers are ordered fastest first;
// capacities are percentages of the node's physical pages and must sum
// to 100.
type TierSpec struct {
	// CapacityPct is this tier's share of the node's page frames (1..100).
	CapacityPct int `json:"capacityPct"`
	// ReadCycles is the bank occupancy of a read at the base (row-activate)
	// latency.
	ReadCycles int64 `json:"readCycles"`
	// WriteCycles is the bank occupancy of a write; NVM-like tiers model
	// write asymmetry by setting it above ReadCycles.
	WriteCycles int64 `json:"writeCycles"`
}

// Policy selects the per-bank row-buffer page policy.
type Policy uint8

const (
	// PolicyNone disables row-buffer modeling: every access pays the
	// tier's base latency.
	PolicyNone Policy = iota
	// PolicyOpen leaves the accessed row active in the bank's row buffer.
	PolicyOpen
	// PolicyClosed precharges after every access.
	PolicyClosed
	// PolicyHybrid predicts per bank whether the row will be reused and
	// leaves it open only then (HAPPY-style).
	PolicyHybrid
)

// String returns the policy name ParsePolicy accepts.
func (p Policy) String() string {
	switch p {
	case PolicyNone:
		return "none"
	case PolicyOpen:
		return "open"
	case PolicyClosed:
		return "closed"
	case PolicyHybrid:
		return "hybrid"
	}
	return fmt.Sprintf("Policy(%d)", uint8(p))
}

// ParsePolicy parses a policy name. The empty string and "none" disable
// row-buffer modeling.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "none":
		return PolicyNone, nil
	case "open":
		return PolicyOpen, nil
	case "closed":
		return PolicyClosed, nil
	case "hybrid":
		return PolicyHybrid, nil
	}
	return PolicyNone, fmt.Errorf("mem: unknown page policy %q (want open, closed, hybrid, or none)", s)
}

// ValidateTiers checks a tier configuration: 1..MaxTiers tiers, capacities
// in 1..100 summing to 100, positive latencies. A nil slice is valid: it
// selects the default single tier at the machine's local latency.
func ValidateTiers(tiers []TierSpec) error {
	if len(tiers) == 0 {
		return nil
	}
	if len(tiers) > MaxTiers {
		return fmt.Errorf("mem: %d tiers exceeds the maximum of %d", len(tiers), MaxTiers)
	}
	sum := 0
	for i, ts := range tiers {
		// Bounding each share also keeps the sum below from wrapping.
		if ts.CapacityPct < 1 || ts.CapacityPct > 100 {
			return fmt.Errorf("mem: tier %d capacity %d%% out of range 1..100", i, ts.CapacityPct)
		}
		if ts.ReadCycles <= 0 {
			return fmt.Errorf("mem: tier %d read latency %d must be positive", i, ts.ReadCycles)
		}
		if ts.WriteCycles <= 0 {
			return fmt.Errorf("mem: tier %d write latency %d must be positive", i, ts.WriteCycles)
		}
		sum += ts.CapacityPct
	}
	if sum != 100 {
		return fmt.Errorf("mem: tier capacities sum to %d%%, want 100%%", sum)
	}
	return nil
}

// ParseTiers parses the CLI tier syntax "capPct:read:write,capPct:read:write".
func ParseTiers(s string) ([]TierSpec, error) {
	if s == "" {
		return nil, nil
	}
	var tiers []TierSpec
	for _, part := range strings.Split(s, ",") {
		f := strings.Split(part, ":")
		if len(f) != 3 {
			return nil, fmt.Errorf("mem: tier %q: want capPct:readCycles:writeCycles", part)
		}
		cap_, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("mem: tier %q: bad capacity: %v", part, err)
		}
		rd, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("mem: tier %q: bad read latency: %v", part, err)
		}
		wr, err := strconv.ParseInt(f[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("mem: tier %q: bad write latency: %v", part, err)
		}
		tiers = append(tiers, TierSpec{CapacityPct: cap_, ReadCycles: rd, WriteCycles: wr})
	}
	if err := ValidateTiers(tiers); err != nil {
		return nil, err
	}
	return tiers, nil
}

// tierState is one tier's bank set and latencies.
type tierState struct {
	banks sim.Banked
	read  int64
	write int64
}

// Memory is one node's physical memory. The zero value is unusable: call
// Configure on the value's final address — bank storage aliases the
// struct for small bank counts, so a Memory must not be copied afterwards.
type Memory struct {
	policy Policy
	nTiers int
	banks  int
	pow2   bool
	mask   uint64

	rowHits      int64
	rowConflicts int64

	// Row-buffer state, indexed tier*banks+bank (empty under PolicyNone).
	// rowOpen is the active row (-1 = precharged); rowLast and pred drive
	// the hybrid policy's per-bank reuse predictor.
	rowOpen []int64
	rowLast []int64
	pred    []uint8

	moveCost [MaxTiers][MaxTiers]int64

	tiers [MaxTiers]tierState
}

// Configure sets up len(specs) asymmetric tiers of n banks each with the
// given row-buffer policy, every bank idle and precharged. specs must be
// non-empty and have passed ValidateTiers. Must run on the Memory's final
// address. Reconfiguring a used Memory reuses its row-buffer storage and
// leaves it exactly as a fresh one configured the same way.
func (m *Memory) Configure(n int, specs []TierSpec, pol Policy) {
	if n < 1 {
		n = 1
	}
	m.policy = pol
	m.nTiers = len(specs)
	m.banks = n
	m.pow2 = n&(n-1) == 0
	m.mask = 0
	if m.pow2 {
		m.mask = uint64(n - 1)
	}
	for i := range specs {
		m.tiers[i].banks.Init(n)
		m.tiers[i].read = specs[i].ReadCycles
		m.tiers[i].write = specs[i].WriteCycles
	}
	for i := len(specs); i < MaxTiers; i++ {
		m.tiers[i] = tierState{}
	}
	// Moving a page between tiers streams its blocks through both bank
	// sets; the charge models a pipelined copy at one block per
	// (read+write)/8 cycles.
	m.moveCost = [MaxTiers][MaxTiers]int64{}
	for from := 0; from < m.nTiers; from++ {
		for to := 0; to < m.nTiers; to++ {
			m.moveCost[from][to] = int64(params.BlocksPerPage) *
				(specs[from].ReadCycles + specs[to].WriteCycles) / 8
		}
	}
	// Row-buffer state exists only under a page policy.
	rows := 0
	if pol != PolicyNone {
		rows = m.nTiers * n
	}
	if cap(m.rowOpen) < rows {
		m.rowOpen = make([]int64, rows)
		m.rowLast = make([]int64, rows)
		m.pred = make([]uint8, rows)
	}
	m.rowOpen = m.rowOpen[:rows]
	m.rowLast = m.rowLast[:rows]
	m.pred = m.pred[:rows]
	m.resetRows()
}

func (m *Memory) resetRows() {
	for i := range m.rowOpen {
		m.rowOpen[i] = -1
		m.rowLast[i] = -1
		m.pred[i] = 0
	}
	m.rowHits = 0
	m.rowConflicts = 0
}

// NumTiers returns the configured tier count.
func (m *Memory) NumTiers() int { return m.nTiers }

// RowHits returns the cumulative row-buffer hits.
func (m *Memory) RowHits() int64 { return m.rowHits }

// RowConflicts returns the cumulative row conflicts (an open row had to
// be precharged before activating the accessed one).
func (m *Memory) RowConflicts() int64 { return m.rowConflicts }

// MoveCost returns the cycles to copy one page from tier `from` to tier
// `to`.
func (m *Memory) MoveCost(from, to int) int64 { return m.moveCost[from][to] }

// Acquire serves an access to a block resident in the given tier:
// the bank is selected by key, the base occupancy by the tier's
// read/write latency, and the row-buffer policy scales it by whether the
// bank's active row matches the block's row.
//
//ascoma:hotpath
func (m *Memory) Acquire(tier int, key uint64, t sim.Time, write bool) sim.Time {
	ts := &m.tiers[tier]
	lat := ts.read
	if write {
		lat = ts.write
	}
	occ := lat
	if m.policy != PolicyNone {
		var bank uint64
		if m.pow2 {
			bank = key & m.mask
		} else {
			bank = key % uint64(m.banks)
		}
		occ = m.rowOccupancy(tier*m.banks+int(bank), int64(key>>RowShift), lat)
	}
	return ts.banks.Acquire(key, t, occ)
}

// rowOccupancy applies the page policy to one bank access and returns the
// occupancy: 75% of the base latency on a row hit, 150% on a row conflict
// (precharge then activate), the base latency on an access to a
// precharged bank.
//
//ascoma:hotpath
func (m *Memory) rowOccupancy(idx int, row, lat int64) int64 {
	occ := lat
	switch open := m.rowOpen[idx]; {
	case open == row:
		m.rowHits++
		occ = lat - lat/4
	case open >= 0:
		m.rowConflicts++
		occ = lat + lat/2
	}
	if m.policy == PolicyOpen {
		m.rowOpen[idx] = row
		return occ
	}
	if m.policy == PolicyClosed {
		// Precharge immediately after the access: the next access always
		// pays a plain activate. (The row is momentarily open, so
		// back-to-back same-row accesses never hit by construction:
		// rowOpen stays -1.)
		m.rowOpen[idx] = -1
		return occ
	}
	// Hybrid: a 2-bit saturating counter per bank votes on row reuse;
	// predicted-reusable rows stay open, others are precharged early.
	p := m.pred[idx]
	if m.rowLast[idx] == row {
		if p < 3 {
			p++
		}
	} else if p > 0 {
		p--
	}
	m.pred[idx] = p
	m.rowLast[idx] = row
	if p >= 2 {
		m.rowOpen[idx] = row
	} else {
		m.rowOpen[idx] = -1
	}
	return occ
}

// Busy returns the total occupied cycles summed over every bank of every
// tier.
func (m *Memory) Busy() sim.Time {
	var total sim.Time
	for i := 0; i < m.nTiers; i++ {
		total += m.tiers[i].banks.Busy()
	}
	return total
}
