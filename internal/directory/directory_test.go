package directory

import (
	"math/bits"
	"reflect"
	"testing"
	"unsafe"

	"ascoma/internal/addr"
)

// recorder captures the directory's callbacks for assertions.
type recorder struct {
	invals     []event
	writebacks []event
}

type event struct {
	node int
	b    addr.Block
	inv  bool
}

func (r *recorder) invalidate(node int, b addr.Block) {
	r.invals = append(r.invals, event{node: node, b: b})
}

func (r *recorder) writeback(node int, b addr.Block, inv bool) {
	r.writebacks = append(r.writebacks, event{node: node, b: b, inv: inv})
}

func (r *recorder) reset() { r.invals = nil; r.writebacks = nil }

func newDir(nodes int) (*Directory, *recorder) {
	rec := &recorder{}
	d := New(nodes, 0, 32, rec.invalidate, rec.writeback)
	return d, rec
}

var testPage = addr.Page(0x10000)

func testBlock(i int) addr.Block { return testPage.BlockAt(i) }

func TestFirstTouchHome(t *testing.T) {
	d, _ := newDir(4)
	if d.Home(testPage) != -1 {
		t.Fatal("unallocated page has a home")
	}
	if h := d.AssignHome(testPage, 2); h != 2 {
		t.Errorf("first touch home = %d, want 2", h)
	}
	if d.Home(testPage) != 2 {
		t.Error("Home disagrees with AssignHome")
	}
	// Re-assignment is idempotent.
	if h := d.AssignHome(testPage, 3); h != 2 {
		t.Errorf("second AssignHome changed home to %d", h)
	}
	if d.HomePages(2) != 1 {
		t.Errorf("HomePages(2) = %d", d.HomePages(2))
	}
}

func TestProportionalCapRoundRobin(t *testing.T) {
	rec := &recorder{}
	d := New(4, 2, 32, rec.invalidate, rec.writeback)
	// Node 0 first-touches 5 pages with a cap of 2: the first two are
	// local, the rest round-robin to other under-cap nodes.
	homes := map[int]int{}
	for i := 0; i < 5; i++ {
		h := d.AssignHome(testPage+addr.Page(i), 0)
		homes[h]++
	}
	if homes[0] != 2 {
		t.Errorf("node 0 got %d home pages, cap is 2", homes[0])
	}
	total := 0
	for _, c := range homes {
		total += c
	}
	if total != 5 {
		t.Errorf("assigned %d pages, want 5", total)
	}
}

func TestCapExhaustedFallsBack(t *testing.T) {
	rec := &recorder{}
	d := New(2, 1, 32, rec.invalidate, rec.writeback)
	// Fill both nodes to the cap, then one more must still get a home.
	d.AssignHome(testPage, 0)
	d.AssignHome(testPage+1, 0) // overflow -> node 1
	h := d.AssignHome(testPage+2, 0)
	if h < 0 || h > 1 {
		t.Errorf("fallback home = %d", h)
	}
}

func TestForceHome(t *testing.T) {
	d, _ := newDir(4)
	d.ForceHome(testPage, 3)
	if d.Home(testPage) != 3 {
		t.Error("ForceHome ignored")
	}
	d.ForceHome(testPage, 1) // no-op on existing page
	if d.Home(testPage) != 3 {
		t.Error("ForceHome overwrote existing home")
	}
	if d.Pages() != 1 {
		t.Errorf("Pages = %d", d.Pages())
	}
}

func TestColdReadThenRefetch(t *testing.T) {
	d, _ := newDir(4)
	d.ForceHome(testPage, 0)
	b := testBlock(0)

	res := d.Fetch(1, b, false, false)
	if res.Class != ColdEssential || res.Refetch {
		t.Errorf("first fetch: class=%v refetch=%v", res.Class, res.Refetch)
	}
	if st, cs := d.State(b); st != SharedState || cs != 1<<1 {
		t.Errorf("after read: state=%v copyset=%b", st, cs)
	}

	// The node lost the line to replacement (silently) and refetches.
	res = d.Fetch(1, b, false, false)
	if res.Class != Conflict || !res.Refetch || res.RefetchCount != 1 {
		t.Errorf("refetch: class=%v refetch=%v count=%d", res.Class, res.Refetch, res.RefetchCount)
	}
	if d.Refetches(testPage, 1) != 1 {
		t.Error("counter not recorded")
	}
	if d.Refetches(testPage, 2) != 0 {
		t.Error("counter leaked to another node")
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	d, rec := newDir(4)
	d.ForceHome(testPage, 0)
	b := testBlock(1)
	d.Fetch(1, b, false, false)
	d.Fetch(2, b, false, false)
	rec.reset()

	res := d.Fetch(3, b, true, false)
	if res.ForwardOwner != -1 {
		t.Errorf("clean block forwarded from node %d", res.ForwardOwner)
	}
	if len(rec.invals) != 2 || rec.invals[0] != (event{node: 1, b: b}) || rec.invals[1] != (event{node: 2, b: b}) {
		t.Errorf("invalidations = %+v, want nodes 1 and 2", rec.invals)
	}
	if len(rec.writebacks) != 0 {
		t.Errorf("writebacks = %+v, want none", rec.writebacks)
	}
	if st, cs := d.State(b); st != Modified || cs != 1<<3 {
		t.Errorf("after write: state=%v copyset=%b", st, cs)
	}
}

func TestWriterNotSelfInvalidated(t *testing.T) {
	d, rec := newDir(4)
	d.ForceHome(testPage, 0)
	b := testBlock(2)
	d.Fetch(1, b, false, false)
	rec.reset()
	d.Fetch(1, b, true, false) // upgrade by the only sharer
	for _, e := range rec.invals {
		if e.node == 1 {
			t.Error("writer invalidated itself")
		}
	}
}

func TestThreeHopForwardOnRead(t *testing.T) {
	d, rec := newDir(4)
	d.ForceHome(testPage, 0)
	b := testBlock(3)
	d.Fetch(1, b, true, false) // node 1 owns dirty
	rec.reset()

	res := d.Fetch(2, b, false, false)
	if res.ForwardOwner != 1 {
		t.Errorf("forward owner = %d, want 1", res.ForwardOwner)
	}
	if len(rec.writebacks) != 1 || rec.writebacks[0] != (event{node: 1, b: b}) {
		t.Errorf("writeback callbacks: %+v", rec.writebacks)
	}
	if len(rec.invals) != 0 {
		t.Errorf("invalidations = %+v, want none", rec.invals)
	}
	// Owner downgraded to sharer, requester added.
	if st, cs := d.State(b); st != SharedState || cs != (1<<1|1<<2) {
		t.Errorf("after forward: state=%v copyset=%b", st, cs)
	}
}

func TestThreeHopForwardOnWrite(t *testing.T) {
	d, rec := newDir(4)
	d.ForceHome(testPage, 0)
	b := testBlock(4)
	d.Fetch(1, b, true, false)
	rec.reset()

	res := d.Fetch(2, b, true, false)
	if res.ForwardOwner != 1 {
		t.Errorf("forward owner = %d, want 1", res.ForwardOwner)
	}
	// The owner loses its copy through the invalidating writeback.
	if len(rec.writebacks) != 1 || rec.writebacks[0] != (event{node: 1, b: b, inv: true}) {
		t.Errorf("writeback callbacks: %+v", rec.writebacks)
	}
	if len(rec.invals) != 0 {
		t.Errorf("invalidations = %+v, want none", rec.invals)
	}
	if st, cs := d.State(b); st != Modified || cs != 1<<2 {
		t.Errorf("state=%v copyset=%b", st, cs)
	}
}

func TestOwnerRewriteNoForward(t *testing.T) {
	d, rec := newDir(4)
	d.ForceHome(testPage, 0)
	b := testBlock(5)
	d.Fetch(1, b, true, false)
	rec.reset()
	res := d.Fetch(1, b, true, false) // owner refetches its own dirty block
	if res.ForwardOwner != -1 || len(rec.invals) != 0 || len(rec.writebacks) != 0 {
		t.Errorf("self rewrite: forward owner=%d invals=%+v writebacks=%+v", res.ForwardOwner, rec.invals, rec.writebacks)
	}
}

func TestUpgradeDoesNotCountRefetch(t *testing.T) {
	d, _ := newDir(4)
	d.ForceHome(testPage, 0)
	b := testBlock(6)
	d.Fetch(1, b, false, false)
	// Ownership upgrade with valid local data: a coherence action, not a
	// conflict miss.
	res := d.Fetch(1, b, true, true)
	if res.Refetch {
		t.Error("upgrade counted as refetch")
	}
	if d.Refetches(testPage, 1) != 0 {
		t.Error("upgrade bumped the counter")
	}
}

func TestInducedColdClassification(t *testing.T) {
	d, _ := newDir(4)
	d.ForceHome(testPage, 0)
	b := testBlock(7)
	d.Fetch(1, b, false, false)
	held, dirty := d.FlushNode(testPage, 1)
	if bits.OnesCount32(held) != 1 || dirty != 0 {
		t.Errorf("FlushNode = (%d, %d)", held, dirty)
	}
	res := d.Fetch(1, b, false, false)
	if res.Class != ColdInduced {
		t.Errorf("post-flush class = %v, want ColdInduced", res.Class)
	}
	if res.Refetch {
		t.Error("post-flush fetch counted as refetch (node was removed from copyset)")
	}
	// And the fetch after that is a conflict again.
	res = d.Fetch(1, b, false, false)
	if res.Class != Conflict {
		t.Errorf("second post-flush class = %v, want Conflict", res.Class)
	}
}

func TestFlushNodeOnlyMarksHeldBlocks(t *testing.T) {
	d, _ := newDir(4)
	d.ForceHome(testPage, 0)
	b0, b1 := testBlock(8), testBlock(9)
	d.Fetch(1, b0, false, false)
	d.Fetch(1, b1, false, false)
	// Node 1 loses b1 to a remote write (coherence, removed from copyset).
	d.Fetch(2, b1, true, false)
	d.FlushNode(testPage, 1)
	// b0 was held -> induced cold; b1 was not held -> essential path,
	// here a conflict (fetched before, lost to coherence).
	if res := d.Fetch(1, b0, false, false); res.Class != ColdInduced {
		t.Errorf("b0 class = %v, want ColdInduced", res.Class)
	}
	if res := d.Fetch(1, b1, false, false); res.Class != Conflict {
		t.Errorf("b1 class = %v, want Conflict", res.Class)
	}
}

func TestFlushNodeDirtyCount(t *testing.T) {
	d, _ := newDir(4)
	d.ForceHome(testPage, 0)
	d.Fetch(1, testBlock(10), true, false)
	d.Fetch(1, testBlock(11), false, false)
	held, dirty := d.FlushNode(testPage, 1)
	if bits.OnesCount32(held) != 2 || dirty != 1 {
		t.Errorf("FlushNode = (%d, %d), want (2, 1)", held, dirty)
	}
	if st, _ := d.State(testBlock(10)); st != Uncached {
		t.Errorf("dirty block state after flush = %v", st)
	}
}

func TestHomeWrite(t *testing.T) {
	d, rec := newDir(4)
	d.ForceHome(testPage, 0)
	b := testBlock(12)
	d.Fetch(1, b, false, false)
	d.Fetch(2, b, false, false)
	rec.reset()
	if inv := d.HomeWrite(b); inv != 2 {
		t.Errorf("HomeWrite invalidated %d, want 2", inv)
	}
	if st, cs := d.State(b); st != Uncached || cs != 0 {
		t.Errorf("after HomeWrite: %v %b", st, cs)
	}
	// Writing an uncached block is free.
	if inv := d.HomeWrite(testBlock(13)); inv != 0 {
		t.Errorf("uncached HomeWrite = %d", inv)
	}
}

func TestHomeWriteRetrievesDirty(t *testing.T) {
	d, rec := newDir(4)
	d.ForceHome(testPage, 0)
	b := testBlock(14)
	d.Fetch(1, b, true, false)
	rec.reset()
	if inv := d.HomeWrite(b); inv != 1 {
		t.Errorf("HomeWrite on dirty = %d, want 1", inv)
	}
	if len(rec.writebacks) != 1 || !rec.writebacks[0].inv {
		t.Errorf("writebacks: %+v", rec.writebacks)
	}
}

func TestHomeRead(t *testing.T) {
	d, rec := newDir(4)
	d.ForceHome(testPage, 0)
	b := testBlock(15)
	if _, fetched := d.HomeRead(b); fetched {
		t.Error("HomeRead of uncached block fetched")
	}
	d.Fetch(1, b, true, false)
	rec.reset()
	owner, fetched := d.HomeRead(b)
	if !fetched || owner != 1 {
		t.Errorf("HomeRead = (%d, %v)", owner, fetched)
	}
	if st, cs := d.State(b); st != SharedState || cs != 1<<1 {
		t.Errorf("after HomeRead: %v %b", st, cs)
	}
	// Owner kept a clean copy (writeback without invalidate).
	if len(rec.writebacks) != 1 || rec.writebacks[0].inv {
		t.Errorf("writebacks: %+v", rec.writebacks)
	}
}

func TestWritebackDirty(t *testing.T) {
	d, _ := newDir(4)
	d.ForceHome(testPage, 0)
	b := testBlock(16)
	d.Fetch(1, b, true, false)
	d.WritebackDirty(1, b)
	if st, cs := d.State(b); st != SharedState || cs != 1<<1 {
		t.Errorf("after writeback: %v %b (writer should stay in copyset)", st, cs)
	}
	// The refetch after a dirty writeback still counts as a conflict.
	res := d.Fetch(1, b, false, false)
	if !res.Refetch {
		t.Error("post-writeback fetch not a refetch")
	}
	// A stale writeback from a non-owner is ignored.
	d.Fetch(2, b, true, false)
	d.WritebackDirty(1, b)
	if st, _ := d.State(b); st != Modified {
		t.Errorf("stale writeback changed state to %v", st)
	}
}

func TestResetRefetch(t *testing.T) {
	d, _ := newDir(4)
	d.ForceHome(testPage, 0)
	b := testBlock(18)
	d.Fetch(1, b, false, false)
	d.Fetch(1, b, false, false)
	d.ResetRefetch(testPage, 1)
	if d.Refetches(testPage, 1) != 0 {
		t.Error("ResetRefetch did not clear the counter")
	}
}

func TestTable6Accounting(t *testing.T) {
	rec := &recorder{}
	threshold := 2
	d := New(4, 0, threshold, rec.invalidate, rec.writeback)
	d.ForceHome(testPage, 0)
	b := testBlock(19)

	// Node 1 crosses the threshold; node 2 touches without crossing.
	d.Fetch(1, b, false, false)
	d.Fetch(1, b, false, false)
	d.Fetch(1, b, false, false) // refetch count 2 == threshold
	d.Fetch(2, b, false, false)

	remote, relocated := d.Table6()
	if remote != 2 {
		t.Errorf("remote pages = %d, want 2 (nodes 1 and 2)", remote)
	}
	if relocated != 1 {
		t.Errorf("relocated pages = %d, want 1 (node 1 only)", relocated)
	}
}

func TestTable6ExcludesHomeNode(t *testing.T) {
	d, _ := newDir(4)
	d.ForceHome(testPage, 0)
	d.Fetch(1, testBlock(20), false, false)
	remote, _ := d.Table6()
	if remote != 1 {
		t.Errorf("remote = %d, want 1 (home node excluded)", remote)
	}
}

func TestFetchUnallocatedPanics(t *testing.T) {
	d, _ := newDir(2)
	defer func() {
		if recover() == nil {
			t.Error("Fetch of unallocated page did not panic")
		}
	}()
	d.Fetch(1, addr.Page(0xdead).BlockAt(0), false, false)
}

func TestBlockStateString(t *testing.T) {
	for _, s := range []BlockState{Uncached, SharedState, Modified} {
		if s.String() == "" {
			t.Error("empty state name")
		}
	}
	if BlockState(9).String() == "" {
		t.Error("unknown state has empty name")
	}
}

func TestMigratePage(t *testing.T) {
	d, rec := newDir(4)
	d.ForceHome(testPage, 0)
	b0, b1 := testBlock(21), testBlock(22)
	d.Fetch(1, b0, false, false)
	d.Fetch(2, b0, false, false)
	d.Fetch(3, b1, true, false)
	d.Fetch(1, b0, false, false) // refetch: counter 1
	rec.reset()

	inv, dirty := d.MigratePage(testPage, 2)
	if inv != 3 {
		t.Errorf("invalidated %d copies, want 3", inv)
	}
	if dirty != 1 {
		t.Errorf("dirty blocks %d, want 1", dirty)
	}
	if d.Home(testPage) != 2 {
		t.Errorf("home = %d, want 2", d.Home(testPage))
	}
	if d.HomePages(0) != 0 || d.HomePages(2) != 1 {
		t.Error("home accounting not moved")
	}
	if st, cs := d.State(b0); st != Uncached || cs != 0 {
		t.Errorf("block state after migration: %v %b", st, cs)
	}
	if d.Refetches(testPage, 1) != 0 {
		t.Error("refetch counters survived migration")
	}
	// Former holders classify induced-cold on their next fetch.
	if res := d.Fetch(1, b0, false, false); res.Class != ColdInduced {
		t.Errorf("post-migration class = %v, want ColdInduced", res.Class)
	}
}

func TestMigratePageUnknown(t *testing.T) {
	d, _ := newDir(2)
	if inv, dirty := d.MigratePage(addr.Page(0xeeee), 1); inv != 0 || dirty != 0 {
		t.Error("migrating an unknown page did something")
	}
}

// TestFetchResultSize pins FetchResult at four fields in 32 bytes or less:
// the compiler keeps a struct that small in registers through Fetch and
// its callers on every remote miss, while a fifth field sends it to memory.
func TestFetchResultSize(t *testing.T) {
	if n := reflect.TypeOf(FetchResult{}).NumField(); n > 4 {
		t.Errorf("FetchResult has %d fields, want at most 4", n)
	}
	if n := unsafe.Sizeof(FetchResult{}); n > 32 {
		t.Errorf("sizeof(FetchResult) = %d, want at most 32", n)
	}
}
