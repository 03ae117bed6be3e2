package addr

import "ascoma/internal/params"

// The simulated address space is laid out statically — one shared region at
// SharedBase and a fixed-stride private region per node at PrivateBase — so
// every legal page can be numbered densely instead of hashed: shared pages
// first, then each node's private pages in node order. The directory, the
// per-node page tables, and the per-node software TLBs are slice-backed
// tables keyed by this index, which turns the simulator's hottest lookup
// (one per L1 miss and one per directory operation) from a map probe into
// two array indexations.

// PageIndex is the dense number of a legal page, in [0, NumPageIndexes).
type PageIndex int32

// NoPageIndex is returned for pages outside the legal regions.
const NoPageIndex PageIndex = -1

// Dense-index layout constants. MaxIndexNodes mirrors the 64-node protocol
// limit (copysets are 64-bit masks), so the numbering is independent of the
// configured machine size.
const (
	sharedBasePage  = uint64(SharedBase) >> params.PageShift
	privateBasePage = uint64(PrivateBase) >> params.PageShift

	// SharedPages is the number of pages in the global shared region.
	SharedPages = int((PrivateBase - SharedBase) >> params.PageShift)
	// PrivatePages is the number of pages in one node's private region.
	PrivatePages = int(PrivateStride >> params.PageShift)
	// MaxIndexNodes bounds the private regions covered by the index.
	MaxIndexNodes = 64
	// NumPageIndexes is the size of the dense index space.
	NumPageIndexes = SharedPages + MaxIndexNodes*PrivatePages
)

// Index returns the dense index of page p, or NoPageIndex with ok=false when
// the page lies outside the shared region and every node's private region.
func (p Page) Index() (idx PageIndex, ok bool) {
	n := uint64(p)
	if n >= sharedBasePage && n < privateBasePage {
		return PageIndex(n - sharedBasePage), true
	}
	// Private regions are contiguous at a fixed stride, so node i's pages
	// occupy one contiguous run of indexes after the shared pages.
	off := n - privateBasePage
	if n >= privateBasePage && off < uint64(MaxIndexNodes*PrivatePages) {
		return PageIndex(SharedPages) + PageIndex(off), true
	}
	return NoPageIndex, false
}

// MustIndex returns the dense index of page p, panicking for illegal pages;
// the hot paths use it because every simulated reference targets a legal
// region by construction.
func (p Page) MustIndex() PageIndex {
	idx, ok := p.Index()
	if !ok {
		panic("addr: page " + p.String() + " outside the legal address regions")
	}
	return idx
}

// PageAt is the inverse of Index: it returns the page with dense index idx.
func PageAt(idx PageIndex) Page {
	if idx < 0 || int(idx) >= NumPageIndexes {
		panic("addr: page index out of range")
	}
	if int(idx) < SharedPages {
		return Page(sharedBasePage + uint64(idx))
	}
	return Page(privateBasePage + uint64(idx) - uint64(SharedPages))
}
