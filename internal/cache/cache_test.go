package cache

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"ascoma/internal/addr"
	"ascoma/internal/params"
)

func line(n uint64) addr.Line   { return addr.Line(n) }
func block(n uint64) addr.Block { return addr.Block(n) }

func TestL1MissThenHit(t *testing.T) {
	c := NewL1(8 * 1024)
	l := line(100)
	if c.Lookup(l, false) {
		t.Fatal("hit on empty cache")
	}
	c.Insert(l, false)
	if !c.Lookup(l, false) {
		t.Fatal("miss after insert")
	}
}

func TestL1DirectMappedConflict(t *testing.T) {
	c := NewL1(8 * 1024) // 256 sets
	a, b := line(5), line(5+256)
	c.Insert(a, false)
	victim, wasValid, wasDirty := c.Insert(b, false)
	if !wasValid || victim != a || wasDirty {
		t.Errorf("conflict eviction: victim=%v valid=%v dirty=%v", victim, wasValid, wasDirty)
	}
	if c.Lookup(a, false) {
		t.Error("evicted line still hits")
	}
	if !c.Lookup(b, false) {
		t.Error("inserted line misses")
	}
}

func TestL1WriteMarksDirty(t *testing.T) {
	c := NewL1(1024)
	l := line(3)
	c.Insert(l, true)
	_, _, dirty := c.Insert(line(3+32), false) // 1024/32 = 32 sets
	if !dirty {
		t.Error("dirty write victim not reported")
	}
}

func TestL1WritePermission(t *testing.T) {
	c := NewL1(1024)
	l := line(7)
	// A read fill installs a read-only copy: stores must miss (MESI: a
	// store to a Shared line needs an ownership upgrade).
	c.Insert(l, false)
	if c.Lookup(l, true) {
		t.Fatal("write hit on a read-only line")
	}
	if !c.Lookup(l, false) {
		t.Fatal("read missed on a valid line")
	}
	// A write fill installs a writable copy; write hits dirty it.
	c.Insert(l, true)
	if !c.Lookup(l, true) {
		t.Fatal("write missed on a writable line")
	}
	_, _, dirty := c.Insert(line(7+32), false)
	if !dirty {
		t.Error("displaced written line not dirty")
	}
}

func TestL1CleanBlockDropsWritePermission(t *testing.T) {
	c := NewL1(8 * 1024)
	b := block(3)
	l := b.LineAt(1)
	c.Insert(l, true)
	c.CleanBlock(b)
	if c.Lookup(l, true) {
		t.Error("write hit after ownership downgrade")
	}
	if !c.Lookup(l, false) {
		t.Error("read missed after downgrade")
	}
}

func TestL1InvalidateBlock(t *testing.T) {
	c := NewL1(8 * 1024)
	b := block(12)
	for i := 0; i < params.LinesPerBlock; i++ {
		c.Insert(b.LineAt(i), true)
	}
	if n := c.InvalidateBlock(b); n != params.LinesPerBlock {
		t.Errorf("invalidated %d lines, want %d", n, params.LinesPerBlock)
	}
	for i := 0; i < params.LinesPerBlock; i++ {
		if c.Lookup(b.LineAt(i), false) {
			t.Errorf("line %d survived invalidation", i)
		}
	}
	if n := c.InvalidateBlock(b); n != 0 {
		t.Errorf("second invalidation dropped %d lines", n)
	}
}

func TestL1CleanBlock(t *testing.T) {
	c := NewL1(8 * 1024)
	b := block(9)
	l := b.LineAt(0)
	c.Insert(l, true)
	c.CleanBlock(b)
	if !c.Lookup(l, false) {
		t.Fatal("CleanBlock invalidated the line")
	}
	// Displacing the cleaned line must not report dirty.
	_, wasValid, wasDirty := c.Insert(line(uint64(l)+256), false)
	if !wasValid || wasDirty {
		t.Errorf("after CleanBlock: valid=%v dirty=%v, want true,false", wasValid, wasDirty)
	}
}

func TestL1FlushPage(t *testing.T) {
	c := NewL1(8 * 1024)
	p := addr.Page(77)
	base := addr.LineOf(p.Base())
	// Fill half the page's lines, a quarter dirty. The page has 128
	// lines; an 8KB L1 has 256 sets so no self-conflicts.
	for i := 0; i < 64; i++ {
		c.Insert(base+addr.Line(i), i%2 == 0)
	}
	flushed, dirty := c.FlushPage(p)
	if flushed != 64 || dirty != 32 {
		t.Errorf("FlushPage = (%d, %d), want (64, 32)", flushed, dirty)
	}
	if c.Occupancy() != 0 {
		t.Errorf("occupancy %d after flush", c.Occupancy())
	}
	if f, d := c.FlushPage(p); f != 0 || d != 0 {
		t.Errorf("second flush = (%d, %d)", f, d)
	}
}

// TestL1FlushBlocks pins the masked flush: it drops the lines of the
// blocks in the mask, counts them, and leaves the page's other lines.
func TestL1FlushBlocks(t *testing.T) {
	c := NewL1(8 * 1024)
	p := addr.Page(77)
	base := addr.LineOf(p.Base())
	for i := 0; i < params.LinesPerPage; i++ {
		c.Insert(base+addr.Line(i), i%3 == 0)
	}
	// Blocks 0, 5 and 31 (four lines each).
	if got := c.FlushBlocks(p, 1|1<<5|1<<31); got != 3*params.LinesPerBlock {
		t.Errorf("FlushBlocks flushed %d lines, want %d", got, 3*params.LinesPerBlock)
	}
	if got, want := c.Occupancy(), params.LinesPerPage-3*params.LinesPerBlock; got != want {
		t.Errorf("occupancy %d after the masked flush, want %d", got, want)
	}
	if c.Lookup(base+5*params.LinesPerBlock+2, false) || !c.Lookup(base+4*params.LinesPerBlock, false) {
		t.Error("masked flush dropped the wrong block's lines")
	}
	if got := c.FlushBlocks(p, 1<<5); got != 0 {
		t.Errorf("second flush of block 5 = %d lines, want 0", got)
	}
}

func TestL1FlushPageLeavesOtherPages(t *testing.T) {
	c := NewL1(8 * 1024)
	p1, p2 := addr.Page(10), addr.Page(11)
	c.Insert(addr.LineOf(p1.Base()), false)
	c.Insert(addr.LineOf(p2.Base()), false)
	c.FlushPage(p1)
	if !c.Lookup(addr.LineOf(p2.Base()), false) {
		t.Error("flush of p1 dropped p2's line")
	}
}

func TestL1Reset(t *testing.T) {
	c := NewL1(1024)
	for i := uint64(0); i < 32; i++ {
		c.Insert(line(i), true)
	}
	c.Reset()
	if c.Occupancy() != 0 {
		t.Error("Reset left valid lines")
	}
}

// Property: occupancy never exceeds the number of sets, and a just-inserted
// line always hits.
func TestL1OccupancyProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		c := NewL1(1024)
		for _, v := range raw {
			l := line(uint64(v))
			c.Insert(l, v%3 == 0)
			if !c.Lookup(l, false) {
				return false
			}
			if c.Occupancy() > c.Sets() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// refL1 is a reference L1 that keeps its tag, valid, writable and an
// explicit dirty bit in parallel arrays, with the textbook rules: a fill
// sets dirty from its write, a write hit marks the line dirty, and every
// invalidation, flush and downgrade clears it. A page flush probes each of
// the page's lines in turn.
type refL1 struct {
	tag             []addr.Line
	valid, w, dirty []bool
}

func newRefL1(sets int) *refL1 {
	return &refL1{
		tag:   make([]addr.Line, sets),
		valid: make([]bool, sets),
		w:     make([]bool, sets),
		dirty: make([]bool, sets),
	}
}

func (r *refL1) set(l addr.Line) int { return int(l) % len(r.tag) }

func (r *refL1) lookup(l addr.Line, write bool) bool {
	i := r.set(l)
	if !r.valid[i] || r.tag[i] != l || (write && !r.w[i]) {
		return false
	}
	if write {
		r.dirty[i] = true
	}
	return true
}

// drop clears line l's write permission, and its validity unless keep is
// set. It reports whether l was present and whether it was dirty.
func (r *refL1) drop(l addr.Line, keep bool) (present, dirty bool) {
	i := r.set(l)
	if !r.valid[i] || r.tag[i] != l {
		return false, false
	}
	dirty = r.dirty[i]
	r.valid[i] = keep
	r.w[i], r.dirty[i] = false, false
	return true, dirty
}

// Property: under any sequence of operations, the packed L1 agrees with the
// reference: the same hits, the same victims, the same invalidation,
// downgrade and page-flush counts, and the same occupancy. In the
// reference a valid line is dirty exactly when it is writable, so the L1's
// writable bit reports every writeback the dirty bit does (machine.skipWalk
// relies on this when it consumes write hits in closed form without
// touching their lines). The sizes bracket a page: a 1 or 2 KB L1 has
// fewer sets than a page has lines, so a page's lines wrap around the
// whole cache, while 8 and 16 KB hold a page in a range of their sets.
func TestL1WritableImpliesDirty(t *testing.T) {
	for _, kb := range []int{1, 2, 8, 16} {
		sets := kb * 1024 / params.LineSize
		// Lines span four times the larger of a page and the cache, so
		// sets see conflicts and flushes see other pages' lines.
		span := uint64(4 * max(sets, params.LinesPerPage))
		var flushedAll, dirtyAll int
		f := func(ops []uint16) bool {
			c := NewL1(kb * 1024)
			r := newRefL1(sets)
			for _, v := range ops {
				l := line(uint64(v>>3) % span)
				switch v % 8 {
				case 0, 1:
					write := v%8 == 1
					i := r.set(l)
					rv, rd := r.tag[i], r.valid[i] && r.dirty[i]
					victim, wasValid, wasDirty := c.Insert(l, write)
					if wasValid != r.valid[i] || (wasValid && victim != rv) || wasDirty != rd {
						return false
					}
					r.tag[i], r.valid[i], r.w[i], r.dirty[i] = l, true, write, write
				case 2, 3:
					if c.Lookup(l, v%8 == 3) != r.lookup(l, v%8 == 3) {
						return false
					}
				case 4, 5:
					keep := v%8 == 5
					var n int
					if keep {
						n = c.CleanBlock(l.Block())
					} else {
						n = c.InvalidateBlock(l.Block())
					}
					want := 0
					for j := 0; j < params.LinesPerBlock; j++ {
						bl := l.Block().LineAt(j)
						writable := r.valid[r.set(bl)] && r.tag[r.set(bl)] == bl && r.w[r.set(bl)]
						if present, _ := r.drop(bl, keep); present && (!keep || writable) {
							want++
						}
					}
					if n != want {
						return false
					}
				case 6, 7:
					flushed, dirty := c.FlushPage(l.Page())
					wantF, wantD := 0, 0
					for j := 0; j < params.LinesPerPage; j++ {
						present, d := r.drop(addr.LineOf(l.Page().Base())+addr.Line(j), false)
						if present {
							wantF++
						}
						if d {
							wantD++
						}
					}
					if flushed != wantF || dirty != wantD {
						return false
					}
					flushedAll += flushed
					dirtyAll += dirty
				}
				valid := 0
				for i := range r.valid {
					if r.valid[i] {
						valid++
						if r.w[i] != r.dirty[i] {
							return false
						}
					}
				}
				if c.Occupancy() != valid {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200, Values: longOps}); err != nil {
			t.Errorf("%d KB: %v", kb, err)
		}
		if flushedAll == 0 || dirtyAll == 0 {
			t.Errorf("%d KB: page flushes found %d lines, %d dirty; the property never compared a nonzero count", kb, flushedAll, dirtyAll)
		}
	}
}

// longOps draws a 1000-operation sequence, long enough for the L1 to fill
// before flushes (testing/quick's own slices hold at most 50 elements).
func longOps(args []reflect.Value, r *rand.Rand) {
	ops := make([]uint16, 1000)
	for i := range ops {
		ops[i] = uint16(r.Intn(1 << 16))
	}
	args[0] = reflect.ValueOf(ops)
}

// TestL1SetSize pins a set at one 8-byte word: eight sets per host cache
// line, and Reset clears 8 bytes a set.
func TestL1SetSize(t *testing.T) {
	if n := unsafe.Sizeof(l1Set(0)); n != 8 {
		t.Errorf("sizeof(l1Set) = %d, want 8", n)
	}
}

func TestRACReadWriteSemantics(t *testing.T) {
	r := NewRAC(1)
	b := block(4)
	if r.Lookup(b, false) {
		t.Fatal("hit on empty RAC")
	}
	r.Insert(b, false) // read fill
	if !r.Lookup(b, false) {
		t.Error("read miss after fill")
	}
	if r.Lookup(b, true) {
		t.Error("write hit on unowned block")
	}
	r.SetOwned(b)
	if !r.Lookup(b, true) {
		t.Error("write miss on owned block")
	}
	r.ClearOwned(b)
	if r.Lookup(b, true) {
		t.Error("write hit after ClearOwned")
	}
	if !r.Lookup(b, false) {
		t.Error("ClearOwned dropped the data")
	}
}

func TestRACDisplacementReportsOwnedVictim(t *testing.T) {
	r := NewRAC(1)
	r.Insert(block(1), true)
	victim, owned := r.Insert(block(2), false)
	if !owned || victim != block(1) {
		t.Errorf("displacement = (%v, %v), want (block 1, true)", victim, owned)
	}
	// Clean displacement reports no victim.
	if _, owned := r.Insert(block(3), false); owned {
		t.Error("clean victim reported owned")
	}
	// Re-inserting the same block is not a displacement.
	r.Insert(block(4), true)
	if _, owned := r.Insert(block(4), true); owned {
		t.Error("self-replacement reported a victim")
	}
}

func TestRACInvalidate(t *testing.T) {
	r := NewRAC(2)
	r.Insert(block(0), true)
	if !r.InvalidateBlock(block(0)) {
		t.Error("invalidate missed present block")
	}
	if r.Present(block(0)) {
		t.Error("block present after invalidate")
	}
	if r.InvalidateBlock(block(0)) {
		t.Error("second invalidate reported present")
	}
}

func TestRACFlushPage(t *testing.T) {
	r := NewRAC(4)
	p := addr.Page(3)
	r.Insert(p.BlockAt(0), false)
	r.Insert(p.BlockAt(1), true)
	// Block 2 of page 4 occupies a different RAC set than both inserts
	// above (indices are block number mod 4).
	r.Insert(addr.Page(4).BlockAt(2), false)
	if n := r.FlushPage(p); n != 2 {
		t.Errorf("FlushPage dropped %d, want 2", n)
	}
	if !r.Present(addr.Page(4).BlockAt(2)) {
		t.Error("flush dropped another page's block")
	}
}

func TestRACZeroEntries(t *testing.T) {
	r := NewRAC(0)
	b := block(1)
	r.Insert(b, true) // must not panic
	if r.Lookup(b, false) || r.Present(b) {
		t.Error("zero-entry RAC hit")
	}
	if r.InvalidateBlock(b) {
		t.Error("zero-entry RAC invalidated")
	}
	if r.FlushPage(addr.Page(0)) != 0 {
		t.Error("zero-entry RAC flushed")
	}
	if r.Entries() != 0 {
		t.Error("Entries != 0")
	}
}

func TestRACReset(t *testing.T) {
	r := NewRAC(2)
	r.Insert(block(0), true)
	r.Insert(block(1), false)
	r.Reset()
	if r.Present(block(0)) || r.Present(block(1)) {
		t.Error("Reset left blocks")
	}
}

// Property: the single-entry RAC always holds exactly the last inserted
// block.
func TestRACLastInsertWinsProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		r := NewRAC(1)
		var last addr.Block
		haveLast := false
		for _, v := range raw {
			b := block(uint64(v))
			r.Insert(b, v%2 == 0)
			last, haveLast = b, true
			if !r.Present(last) {
				return false
			}
		}
		return !haveLast || r.Present(last)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
