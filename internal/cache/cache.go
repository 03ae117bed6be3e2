// Package cache models the two hardware caches on a node: the direct-mapped
// L1 processor cache (8 KB, 32-byte lines in the paper's configuration) and
// the small remote access cache (RAC) on the DSM controller, which holds
// whole 128-byte DSM transfer blocks (a single entry by default — "the last
// remote data received as part of performing a 4-line fetch").
//
// The simulator uses virtual tags: the L1 is "virtually indexed, physically
// tagged" in the paper, but the simulated mapping is 1:1 and every remap is
// preceded by a flush, so tagging by global virtual address is equivalent.
package cache

import (
	"math/bits"

	"ascoma/internal/addr"
	"ascoma/internal/params"
)

// l1Set is one direct-mapped set packed into a word: the full line tag
// shifted left 2, the writable bit (bit 1) and the valid bit (bit 0). A
// lookup or fill touches one 8-byte word (a host cache line covers eight
// sets), and an invalid set is the zero word.
type l1Set uint64

const (
	l1Valid    l1Set = 1 << 0
	l1Writable l1Set = 1 << 1
	l1TagShift       = 2
)

// word is the set word of a valid line l, writable when write is set.
func word(l addr.Line, write bool) l1Set {
	w := l1Set(l)<<l1TagShift | l1Valid
	if write {
		w |= l1Writable
	}
	return w
}

// L1 is a direct-mapped write-back processor cache. Each line carries a
// writable bit (the M state of an MSI-style cache): a store to a line
// held read-only is NOT a hit — it must go through the coherence machinery
// to obtain ownership, or other nodes would keep stale copies.
//
// There is no separate dirty bit, because a valid line is dirty exactly
// when it is writable: a fill is writable only when a write brought it in,
// a write hit needs a writable line, and every invalidation, flush and
// downgrade drops write permission. So a writable victim is the one that
// must be written back. A clean-exclusive state would break this and need
// the bit back.
type L1 struct {
	sets  int
	mask  uint64 // sets-1; the set count is a validated power of two
	lines []l1Set
}

// NewL1 builds an L1 with the given capacity in bytes (power of two).
func NewL1(bytes int) *L1 {
	sets := bytes / params.LineSize
	return &L1{
		sets:  sets,
		mask:  uint64(sets - 1),
		lines: make([]l1Set, sets),
	}
}

func (c *L1) index(l addr.Line) int { return int(uint64(l) & c.mask) }

// Lookup reports whether line l can satisfy the access: any valid copy
// satisfies a read; only a writable copy satisfies a write. A write to a
// read-only copy misses and must obtain ownership. Lookup has no side
// effect, so probing a reference and replaying it later is the same as
// probing it once. Probed once per reference: the step loop (through
// access) and walk verification both call it.
func (c *L1) Lookup(l addr.Line, write bool) bool {
	s := c.lines[c.index(l)]
	if write {
		return s == word(l, true)
	}
	return s&^l1Writable == word(l, false)
}

// Insert fills line l, evicting whatever occupied its set. Write fills are
// installed writable, and so dirty. It returns the evicted line and whether
// it was valid and dirty (a dirty victim must be written back).
func (c *L1) Insert(l addr.Line, write bool) (victim addr.Line, wasValid, wasDirty bool) {
	s := &c.lines[c.index(l)]
	old := *s
	*s = word(l, write)
	return addr.Line(old >> l1TagShift), old&l1Valid != 0, old&l1Writable != 0
}

// InvalidateBlock drops every line of coherence block b that is present and
// returns how many valid lines were dropped (dirty or not — on an external
// invalidation ownership moves to the requester, so no local writeback is
// modeled).
func (c *L1) InvalidateBlock(b addr.Block) int {
	n := 0
	for j := 0; j < params.LinesPerBlock; j++ {
		l := b.LineAt(j)
		s := &c.lines[c.index(l)]
		if *s&^l1Writable == word(l, false) {
			*s = 0
			n++
		}
	}
	return n
}

// FlushPage drops every line of page p, returning the number of valid lines
// flushed and how many of them were dirty. This is the processor-cache
// flush performed when a page is remapped between CC-NUMA and S-COMA modes.
func (c *L1) FlushPage(p addr.Page) (flushed, dirty int) {
	base := addr.Line(uint64(p) << (params.PageShift - params.LineShift))
	for j := 0; j < params.LinesPerPage; j++ {
		l := base + addr.Line(j)
		s := &c.lines[c.index(l)]
		if *s&^l1Writable == word(l, false) {
			if *s&l1Writable != 0 {
				dirty++
			}
			*s = 0
			flushed++
		}
	}
	return flushed, dirty
}

// FlushBlocks drops every line of the blocks of page p whose bits are set
// in held (bit i: block i of the page) and returns the number of valid
// lines flushed. It is FlushPage for a caller that knows which blocks can
// hold lines: a remapped page's blocks outside the node's copysets hold
// none.
func (c *L1) FlushBlocks(p addr.Page, held uint32) (flushed int) {
	for ; held != 0; held &= held - 1 {
		flushed += c.InvalidateBlock(p.BlockAt(bits.TrailingZeros32(held)))
	}
	return flushed
}

// CleanBlock downgrades block b's lines to clean read-only copies: used
// when a dirty owner supplies a block to a reader (three-hop forwarding
// downgrades the owner to a sharer, which loses write permission). Returns
// the number of lines whose state actually changed, so callers can tell a
// real downgrade from a no-op on an L1 that had already evicted the block.
func (c *L1) CleanBlock(b addr.Block) int {
	n := 0
	for j := 0; j < params.LinesPerBlock; j++ {
		l := b.LineAt(j)
		s := &c.lines[c.index(l)]
		if *s == word(l, true) {
			*s = word(l, false)
			n++
		}
	}
	return n
}

// Reset invalidates the whole cache.
func (c *L1) Reset() { clear(c.lines) }

// Occupancy returns the number of valid lines (for tests).
func (c *L1) Occupancy() int {
	n := 0
	for _, s := range c.lines {
		if s&l1Valid != 0 {
			n++
		}
	}
	return n
}

// Sets returns the number of sets (== lines) in the cache.
func (c *L1) Sets() int { return c.sets }

// RAC is the remote access cache: a tiny direct-mapped cache of 128-byte
// DSM blocks on the DSM controller. Remote fills pass through it, so
// subsequent misses to the other lines of a fetched block hit locally.
// Each entry carries an owned bit: blocks fetched by a write are held with
// ownership and may absorb further writes locally; read-fetched blocks
// satisfy only reads.
type RAC struct {
	entries int
	mask    uint64 // entries-1 when a power of two (index path), else unused
	pow2    bool
	tags    []addr.Block
	valid   []bool
	owned   []bool
}

// NewRAC builds a RAC with n block entries; n == 0 disables the RAC.
func NewRAC(n int) *RAC {
	return &RAC{
		entries: n,
		mask:    uint64(n - 1),
		pow2:    n&(n-1) == 0,
		tags:    make([]addr.Block, n),
		valid:   make([]bool, n),
		owned:   make([]bool, n),
	}
}

// index selects block b's entry: b mod entries, masked for the common
// power-of-two sizes (the default single entry included) to keep a 64-bit
// divide off every remote miss. Callers have already returned for n == 0.
func (r *RAC) index(b addr.Block) int {
	if r.pow2 {
		return int(uint64(b) & r.mask)
	}
	return int(uint64(b) % uint64(r.entries))
}

// Lookup reports whether block b can satisfy the access: any hit satisfies
// a read; only an owned hit satisfies a write.
func (r *RAC) Lookup(b addr.Block, write bool) bool {
	if r.entries == 0 {
		return false
	}
	i := r.index(b)
	return r.valid[i] && r.tags[i] == b && (!write || r.owned[i])
}

// Present reports whether block b is cached at all, regardless of
// ownership.
func (r *RAC) Present(b addr.Block) bool {
	if r.entries == 0 {
		return false
	}
	i := r.index(b)
	return r.valid[i] && r.tags[i] == b
}

// Insert fills block b, displacing the previous occupant of its entry. It
// returns the displaced block and whether it was held owned (an owned
// victim may carry dirty data that must be written back to its home).
func (r *RAC) Insert(b addr.Block, owned bool) (victim addr.Block, victimOwned bool) {
	if r.entries == 0 {
		return 0, false
	}
	i := r.index(b)
	if r.valid[i] && r.owned[i] && r.tags[i] != b {
		victim, victimOwned = r.tags[i], true
	}
	r.tags[i] = b
	r.valid[i] = true
	r.owned[i] = owned
	return victim, victimOwned
}

// SetOwned upgrades an existing entry to owned (after an ownership fetch).
func (r *RAC) SetOwned(b addr.Block) {
	if r.entries == 0 {
		return
	}
	i := r.index(b)
	if r.valid[i] && r.tags[i] == b {
		r.owned[i] = true
	}
}

// ClearOwned downgrades an existing entry to a clean shared copy.
func (r *RAC) ClearOwned(b addr.Block) {
	if r.entries == 0 {
		return
	}
	i := r.index(b)
	if r.valid[i] && r.tags[i] == b {
		r.owned[i] = false
	}
}

// InvalidateBlock drops block b if present and reports whether it was.
func (r *RAC) InvalidateBlock(b addr.Block) bool {
	if r.entries == 0 {
		return false
	}
	i := r.index(b)
	if r.valid[i] && r.tags[i] == b {
		r.valid[i] = false
		r.owned[i] = false
		return true
	}
	return false
}

// FlushPage drops every block of page p and returns how many were present.
// The RAC has very few entries, so a direct scan is the simplest correct
// approach.
func (r *RAC) FlushPage(p addr.Page) int {
	n := 0
	for i := 0; i < r.entries; i++ {
		if r.valid[i] && r.tags[i].Page() == p {
			r.valid[i] = false
			r.owned[i] = false
			n++
		}
	}
	return n
}

// Reset invalidates the whole RAC.
func (r *RAC) Reset() {
	for i := range r.valid {
		r.valid[i] = false
		r.owned[i] = false
	}
}

// Entries returns the configured number of entries.
func (r *RAC) Entries() int { return r.entries }
