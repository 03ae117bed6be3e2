// Package params holds the architectural and policy parameters of the
// simulated machine. The defaults reproduce the configuration in Section 4
// of the AS-COMA paper (Kuo et al., 1998): a 120 MHz HP PA-RISC-class node
// with an 8 KB direct-mapped L1, a single-entry 128-byte RAC, a Runway-style
// split-transaction bus, and a 4x4-switch interconnect with a roughly 3:1
// remote-to-local memory latency ratio. Every field is documented with the
// sentence of the paper it comes from; values the OCR mangled are recorded
// in DESIGN.md.
package params

import (
	"errors"
	"fmt"
)

// Sizes of the fixed architectural units, in bytes. The paper models
// 4-kilobyte pages, 32-byte processor cache lines, and 128-byte DSM
// transfer blocks ("DSM data is moved in 128-byte (4-line) chunks").
const (
	PageSize  = 4096
	LineSize  = 32
	BlockSize = 128

	// Derived counts.
	LinesPerBlock  = BlockSize / LineSize // 4
	BlocksPerPage  = PageSize / BlockSize // 32
	LinesPerPage   = PageSize / LineSize  // 128
	PageShift      = 12
	LineShift      = 5
	BlockShift     = 7
	BlockPageShift = PageShift - BlockShift // block index bits within a page
)

// Arch identifies one of the five simulated memory architectures.
type Arch int

const (
	// CCNUMA is the baseline cache-coherent NUMA: remote data is cached
	// only in the processor cache and the RAC; pages are never remapped.
	CCNUMA Arch = iota
	// SCOMA is pure simple-COMA: every remote page must be backed by a
	// local page-cache page before it can be accessed.
	SCOMA
	// RNUMA is Wisconsin reactive NUMA: pages start in CC-NUMA mode and
	// are upgraded to S-COMA after crossing a fixed refetch threshold.
	RNUMA
	// VCNUMA is the USC victim-cache NUMA relocation strategy: like
	// R-NUMA plus a hardware thrashing-detection scheme with a break-even
	// number. (Per the paper, only its relocation strategy is modeled,
	// not the victim-cache bus modifications.)
	VCNUMA
	// ASCOMA is the paper's contribution: S-COMA-preferred initial
	// allocation plus an adaptive pageout-daemon-driven back-off of the
	// refetch threshold under thrashing.
	ASCOMA
	// MIGNUMA is an extension beyond the paper's five architectures: a
	// CC-NUMA that responds to refetch-threshold crossings by *migrating*
	// the page (changing its home) instead of replicating it. It models
	// the dynamic-page-migration alternative the paper's related work
	// discusses ("migration ... [has] to date only been successful for
	// read-only or non-shared pages") and demonstrates why: actively
	// shared pages ping-pong.
	MIGNUMA
)

var archNames = [...]string{"CC-NUMA", "S-COMA", "R-NUMA", "VC-NUMA", "AS-COMA", "MIG-NUMA"}

// String returns the conventional hyphenated architecture name.
func (a Arch) String() string {
	if a < 0 || int(a) >= len(archNames) {
		return fmt.Sprintf("Arch(%d)", int(a))
	}
	return archNames[a]
}

// ParseArch converts a string (any of the forms "ascoma", "AS-COMA",
// "as_coma") to an Arch.
func ParseArch(s string) (Arch, error) {
	var buf [16]byte // every valid spelling fits: parsing allocates nothing
	norm := buf[:0]
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z':
			norm = append(norm, c-'a'+'A')
		case c == '-' || c == '_' || c == ' ':
		default:
			norm = append(norm, c)
		}
	}
	switch string(norm) {
	case "CCNUMA", "NUMA":
		return CCNUMA, nil
	case "SCOMA", "COMA":
		return SCOMA, nil
	case "RNUMA":
		return RNUMA, nil
	case "VCNUMA":
		return VCNUMA, nil
	case "ASCOMA":
		return ASCOMA, nil
	case "MIGNUMA":
		return MIGNUMA, nil
	}
	return 0, fmt.Errorf("params: unknown architecture %q", s)
}

// AllArchs lists the paper's five architectures in the order its figures
// use. MIGNUMA, being an extension, is excluded; list it explicitly where
// wanted.
func AllArchs() []Arch { return []Arch{CCNUMA, SCOMA, ASCOMA, VCNUMA, RNUMA} }

// Params collects every tunable of the simulated machine. The zero value is
// not usable; start from Default and override.
type Params struct {
	// Nodes is the number of nodes in the machine (paper: 8; lu uses 4).
	Nodes int

	// --- L1 processor cache ("8-kilobyte direct-mapped processor cache,
	// 32-byte lines, 1-cycle hit latency"). ---
	L1Bytes     int // total capacity
	L1HitCycles int64
	L1FlushLine int64 // cycles to flush one valid line during a page flush

	// RACEntries is the number of 128-byte RAC lines. The paper's RAC
	// "contain[s] the last remote data received as part of performing a
	// 4-line fetch", i.e. a single entry.
	RACEntries   int
	RACHitCycles int64 // Table 4: RAC hit latency

	// --- Memory system (Table 4). ---
	LocalMemCycles int64 // local memory (home or page cache) access
	MemBanks       int   // interleaved main-memory banks per node

	// --- Bus (Runway-style split transaction). ---
	BusCycles int64 // occupancy per bus transaction

	// --- Network ("2-cycle propagation, 4x4 switch topology, port
	// contention (only) modeled, fall-through delay 4 cycles"). ---
	NetPropCycles    int64 // per-hop wire propagation
	NetFallThrough   int64 // switch fall-through delay
	NetPortOccupancy int64 // input-port occupancy per message
	SwitchRadix      int   // 4x4 switches

	// DirCycles is the directory-controller occupancy per request.
	DirCycles int64

	// DSMProcCycles is the DSM-engine processing time per remote
	// operation, charged once at the requesting node and once at the
	// serving node (snooping, staging-buffer management, protocol
	// processing). Together with the network and directory costs it sets
	// the paper's ~3:1 remote-to-local latency ratio.
	DSMProcCycles int64

	// FlushBlockWBCycles is the kernel cost per dirty block written back
	// to a remote home while flushing a page for remapping.
	FlushBlockWBCycles int64

	// --- VM / kernel cost model. ---
	PageFaultCycles  int64 // K-BASE: base page-fault + map cost
	InterruptCycles  int64 // K-OVERHD: relocation interrupt delivery
	RelocationCycles int64 // K-OVERHD: remap operation (page table + DSM update)
	DaemonWakeCycles int64 // K-OVERHD: context switch to the pageout daemon
	DaemonPageCycles int64 // K-OVERHD: per page examined by second chance
	FreeMinPct       int   // free_min as % of per-node total memory (paper: 2%)
	FreeTargetPct    int   // free_target as % of per-node total memory (paper: 7%)
	DaemonInterval   int64 // cycles between periodic pageout-daemon runs

	// --- Relocation policy (hybrids). ---
	RefetchThreshold   int // initial remote-refetch count that triggers an upgrade (paper: 32)
	ThresholdIncrement int // added to the threshold when thrashing is detected (paper: 8)
	ThresholdMax       int // ceiling; at or above this AS-COMA disables relocation
	VCBreakEven        int // VC-NUMA break-even number (paper: 16)
	VCEvalReplacements int // VC-NUMA checks its back-off indicator every this-many replacements per cached page (paper: 2)
	VCThresholdCap     int // ceiling on VC-NUMA's escalated threshold: its hardware counters are narrow ("4 bits per page per node"-class), so unlike AS-COMA it cannot back off indefinitely

	// BarrierCycles is the base cost of a barrier operation once every
	// node has arrived.
	BarrierCycles int64

	// MigrationCycles is the kernel cost of moving a page to a new home
	// (MIG-NUMA extension): global page-table update and TLB shootdown
	// on every node, far pricier than a local remap.
	MigrationCycles int64
}

// Default returns the paper's machine configuration (Section 4, Tables 3-4).
func Default() Params {
	return Params{
		Nodes: 8,

		L1Bytes:     8 * 1024,
		L1HitCycles: 1,
		L1FlushLine: 10,

		RACEntries:   1,
		RACHitCycles: 26,

		LocalMemCycles: 50,
		MemBanks:       4,

		BusCycles: 7,

		NetPropCycles:    2,
		NetFallThrough:   4,
		NetPortOccupancy: 4,
		SwitchRadix:      4,

		DirCycles:     20,
		DSMProcCycles: 20,

		FlushBlockWBCycles: 20,

		PageFaultCycles:  500,
		InterruptCycles:  1000,
		RelocationCycles: 2500,
		DaemonWakeCycles: 500,
		DaemonPageCycles: 30,
		FreeMinPct:       2,
		FreeTargetPct:    7,
		DaemonInterval:   100_000,

		RefetchThreshold:   32,
		ThresholdIncrement: 8,
		ThresholdMax:       1 << 20,
		VCBreakEven:        16,
		VCEvalReplacements: 2,
		VCThresholdCap:     128,

		BarrierCycles: 100,

		MigrationCycles: 8000,
	}
}

// L1Lines returns the number of lines (sets) in the direct-mapped L1.
func (p *Params) L1Lines() int { return p.L1Bytes / LineSize }

// RemoteMemCycles returns the minimum latency of a clean remote fetch under
// this configuration: local bus, DSM-engine processing, request hop,
// directory + home memory, reply hop, DSM-engine processing, local bus
// fill. With the defaults this is ~150 cycles, preserving the paper's ~3:1
// remote-to-local ratio.
func (p *Params) RemoteMemCycles() int64 {
	hop := p.NetPropCycles + p.NetFallThrough + p.NetPortOccupancy
	return p.BusCycles + p.DSMProcCycles + hop + p.DirCycles + p.LocalMemCycles +
		hop + p.DSMProcCycles + p.BusCycles + p.L1HitCycles
}

// Validate reports the first configuration error, or nil.
func (p *Params) Validate() error {
	switch {
	case p.Nodes < 1:
		return errors.New("params: Nodes must be >= 1")
	case p.Nodes > 64:
		return errors.New("params: Nodes must be <= 64 (copysets are 64-bit masks)")
	case p.L1Bytes < LineSize || p.L1Bytes%LineSize != 0:
		return fmt.Errorf("params: L1Bytes %d must be a positive multiple of the %d-byte line", p.L1Bytes, LineSize)
	case p.L1Bytes&(p.L1Bytes-1) != 0:
		return fmt.Errorf("params: L1Bytes %d must be a power of two (direct-mapped index)", p.L1Bytes)
	case p.RACEntries < 0:
		return errors.New("params: RACEntries must be >= 0")
	case p.MemBanks < 1:
		return errors.New("params: MemBanks must be >= 1")
	case p.L1HitCycles < 1 || p.LocalMemCycles < 1:
		return errors.New("params: latencies must be >= 1 cycle")
	case p.FreeMinPct < 0 || p.FreeTargetPct < p.FreeMinPct || p.FreeTargetPct > 100:
		return fmt.Errorf("params: need 0 <= FreeMinPct(%d) <= FreeTargetPct(%d) <= 100", p.FreeMinPct, p.FreeTargetPct)
	case p.RefetchThreshold < 1:
		return errors.New("params: RefetchThreshold must be >= 1")
	case p.ThresholdIncrement < 1:
		return errors.New("params: ThresholdIncrement must be >= 1")
	case p.ThresholdMax < p.RefetchThreshold:
		return errors.New("params: ThresholdMax must be >= RefetchThreshold")
	case p.VCBreakEven < 1 || p.VCEvalReplacements < 1:
		return errors.New("params: VC-NUMA constants must be >= 1")
	case p.VCThresholdCap < 0:
		return errors.New("params: VCThresholdCap must be >= 0")
	case p.DaemonInterval < 1:
		return errors.New("params: DaemonInterval must be >= 1")
	}
	return nil
}
