// Package dense provides a two-level, chunk-allocated table keyed by small
// dense integers — the slice-backed replacement for the map[addr.Page]
// lookups that used to dominate the simulator's per-reference hot path.
//
// The index space may be large (the full dense page-index space is ~1.5M
// entries) but simulations touch compact runs of it: the shared layout
// allocates pages contiguously from the shared base and each node's private
// region is a contiguous run, so only the chunks actually touched are ever
// allocated. A lookup is two array indexations and no hashing; entries are
// value-typed inside their chunk, so creating one allocates nothing beyond
// the (amortized) chunk itself, and entry addresses are stable for the life
// of the table — chunks are never moved or resized, so callers may retain
// *T pointers across inserts.
package dense

import "math/bits"

// chunkShift sets the chunk granularity: 512 entries per chunk keeps the
// per-chunk allocation modest for fat entry types (the directory's per-page
// entry is ~1 KB) while covering a node's whole private region in a few
// chunks.
const (
	chunkShift = 9
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
)

// chunk is one allocation of chunkSize entries plus the mark set of the
// entries GetOrCreate has handed out since the last Reset. The marks live
// inside the chunk allocation, so a table's sparse chunk directory stays
// one pointer per slot.
type chunk[T any] struct {
	marks  [chunkSize / 64]uint64
	listed bool // on the table's used list
	e      [chunkSize]T
}

// Table is a sparse array of T keyed by a non-negative dense index. The zero
// value is an empty table.
type Table[T any] struct {
	chunks []*chunk[T]
	used   []*chunk[T] // chunks holding a marked entry, in first-mark order
}

// Get returns the entry at index i, or nil when its chunk has never been
// touched. The returned pointer aliases table storage: mutations through it
// are visible to later calls, and the pointer stays valid forever. Get
// marks nothing, so callers must write only entries GetOrCreate handed out
// since the last Reset: Reset clears those alone.
func (t *Table[T]) Get(i int) *T {
	c := i >> chunkShift
	if c >= len(t.chunks) || t.chunks[c] == nil {
		return nil
	}
	return &t.chunks[c].e[i&chunkMask]
}

// GetOrCreate returns the entry at index i, allocating its chunk on first
// touch, and marks it live until the next Reset. New entries are
// zero-valued.
func (t *Table[T]) GetOrCreate(i int) *T {
	c := i >> chunkShift
	if c >= len(t.chunks) {
		grown := make([]*chunk[T], c+1)
		copy(grown, t.chunks)
		t.chunks = grown
	}
	ch := t.chunks[c]
	if ch == nil {
		ch = new(chunk[T])
		t.chunks[c] = ch
	}
	j := i & chunkMask
	if bit := uint64(1) << (j & 63); ch.marks[j>>6]&bit == 0 {
		ch.marks[j>>6] |= bit
		if !ch.listed {
			ch.listed = true
			t.used = append(t.used, ch)
		}
	}
	return &ch.e[j]
}

// Reset zeroes the entries handed out since the last Reset, retaining the
// chunk storage. A recycled table serves the same index ranges without
// reallocating — the point of the machine arena — and pays only for the
// entries the last run touched, not for every chunk the table has kept.
func (t *Table[T]) Reset() {
	var zero T
	for _, ch := range t.used {
		for w, m := range ch.marks {
			for ; m != 0; m &= m - 1 {
				ch.e[w<<6+bits.TrailingZeros64(m)] = zero
			}
		}
		ch.marks = [chunkSize / 64]uint64{}
		ch.listed = false
	}
	t.used = t.used[:0]
}

// Range calls f for every entry GetOrCreate has handed out since the last
// Reset, in ascending index order. It stops early when f returns false.
func (t *Table[T]) Range(f func(i int, v *T) bool) {
	for c, ch := range t.chunks {
		if ch == nil || !ch.listed {
			continue
		}
		for w, m := range ch.marks {
			for ; m != 0; m &= m - 1 {
				j := w<<6 + bits.TrailingZeros64(m)
				if !f(c<<chunkShift+j, &ch.e[j]) {
					return
				}
			}
		}
	}
}
