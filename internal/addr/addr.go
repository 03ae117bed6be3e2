// Package addr defines the global virtual address types used throughout the
// simulator and the arithmetic for splitting addresses into pages, 128-byte
// coherence blocks, and 32-byte processor cache lines.
//
// The simulated machine has a single global virtual address space for shared
// data (as in the paper's CC-NUMA base: "Processors can access any piece of
// global data by mapping a virtual address to the appropriate global
// physical address"). Each node additionally has a private region used to
// model non-shared references; private regions are disjoint per node.
package addr

import (
	"fmt"

	"ascoma/internal/params"
)

// GVA is a global virtual byte address.
type GVA uint64

// Page identifies a 4 KB virtual page (GVA >> 12).
type Page uint64

// Block identifies a 128-byte coherence block (GVA >> 7).
type Block uint64

// Line identifies a 32-byte processor cache line (GVA >> 5).
type Line uint64

// Region bases. The shared region is where all workload shared data lives;
// each node n has a private region at PrivateBase + n*PrivateStride.
const (
	SharedBase    GVA = 0x1000_0000
	PrivateBase   GVA = 0x8000_0000
	PrivateStride GVA = 0x0400_0000 // 64 MB per node, far more than any workload uses
)

// PageOf returns the page containing a.
func PageOf(a GVA) Page { return Page(a >> params.PageShift) }

// BlockOf returns the coherence block containing a.
func BlockOf(a GVA) Block { return Block(a >> params.BlockShift) }

// LineOf returns the cache line containing a.
func LineOf(a GVA) Line { return Line(a >> params.LineShift) }

// Base returns the first byte address of the page.
func (p Page) Base() GVA { return GVA(p) << params.PageShift }

// Base returns the first byte address of the block.
func (b Block) Base() GVA { return GVA(b) << params.BlockShift }

// Base returns the first byte address of the line.
func (l Line) Base() GVA { return GVA(l) << params.LineShift }

// Page returns the page containing the block.
func (b Block) Page() Page { return Page(b >> params.BlockPageShift) }

// Index returns the block's index within its page (0..31).
func (b Block) Index() int { return int(b) & (params.BlocksPerPage - 1) }

// Block returns the coherence block containing the line.
func (l Line) Block() Block { return Block(l >> (params.BlockShift - params.LineShift)) }

// Page returns the page containing the line.
func (l Line) Page() Page { return Page(l >> (params.PageShift - params.LineShift)) }

// BlockAt returns the i'th block of page p.
func (p Page) BlockAt(i int) Block {
	return Block(uint64(p)<<params.BlockPageShift) + Block(i)
}

// LineAt returns the i'th line of block b (i in 0..3).
func (b Block) LineAt(i int) Line {
	return Line(uint64(b)<<(params.BlockShift-params.LineShift)) + Line(i)
}

// IsShared reports whether the address lies in the global shared region.
func IsShared(a GVA) bool { return a >= SharedBase && a < PrivateBase }

// PrivateRegion returns the base of node n's private region.
func PrivateRegion(node int) GVA {
	return PrivateBase + GVA(node)*PrivateStride
}

func (a GVA) String() string { return fmt.Sprintf("gva:%#x", uint64(a)) }

func (p Page) String() string { return fmt.Sprintf("page:%#x", uint64(p)) }

func (b Block) String() string { return fmt.Sprintf("block:%#x", uint64(b)) }
