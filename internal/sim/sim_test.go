package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestQueueOrdersByTime(t *testing.T) {
	var q Queue
	times := []Time{50, 10, 30, 20, 40}
	for i, tm := range times {
		q.Push(Event{Time: tm, Node: int32(i)})
	}
	var got []Time
	for {
		e, ok := q.Pop()
		if !ok {
			break
		}
		got = append(got, e.Time)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Errorf("pops out of order: %v", got)
	}
	if len(got) != len(times) {
		t.Errorf("popped %d events, pushed %d", len(got), len(times))
	}
}

func TestQueueTieBreaksByInsertionOrder(t *testing.T) {
	var q Queue
	for i := 0; i < 10; i++ {
		q.Push(Event{Time: 100, Node: int32(i)})
	}
	for i := 0; i < 10; i++ {
		e, ok := q.Pop()
		if !ok {
			t.Fatal("queue empty early")
		}
		if e.Node != int32(i) {
			t.Fatalf("tie broken out of insertion order: got node %d at pop %d", e.Node, i)
		}
	}
}

func TestQueuePeek(t *testing.T) {
	var q Queue
	if _, ok := q.Peek(); ok {
		t.Error("Peek on empty queue returned ok")
	}
	q.Push(Event{Time: 7})
	e, ok := q.Peek()
	if !ok || e.Time != 7 {
		t.Errorf("Peek = %v, %v", e, ok)
	}
	if q.Len() != 1 {
		t.Errorf("Peek consumed the event")
	}
}

func TestQueuePopEmpty(t *testing.T) {
	var q Queue
	if _, ok := q.Pop(); ok {
		t.Error("Pop on empty queue returned ok")
	}
}

// Property: for any sequence of pushes, pops come out in nondecreasing time
// order and conserve count.
func TestQueueHeapProperty(t *testing.T) {
	f := func(raw []int16) bool {
		var q Queue
		for _, v := range raw {
			q.Push(Event{Time: Time(v)})
		}
		last := Time(-1 << 62)
		n := 0
		for {
			e, ok := q.Pop()
			if !ok {
				break
			}
			if e.Time < last {
				return false
			}
			last = e.Time
			n++
		}
		return n == len(raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResourceIdleStartsImmediately(t *testing.T) {
	var r Resource
	if end := r.Acquire(100, 10); end != 110 {
		t.Errorf("end = %d, want 110", end)
	}
	if r.FreeAt() != 110 {
		t.Errorf("FreeAt = %d, want 110", r.FreeAt())
	}
}

func TestResourceQueuesBehindBusy(t *testing.T) {
	var r Resource
	r.Acquire(100, 10)
	// A request arriving at 105 waits until 110.
	if end := r.Acquire(105, 10); end != 120 {
		t.Errorf("end = %d, want 120", end)
	}
	if r.Busy != 20 {
		t.Errorf("Busy = %d, want 20", r.Busy)
	}
}

func TestResourceGapLeavesIdle(t *testing.T) {
	var r Resource
	r.Acquire(0, 5)
	if end := r.Acquire(1000, 5); end != 1005 {
		t.Errorf("end = %d, want 1005 (idle gap)", end)
	}
}

func TestResourceReset(t *testing.T) {
	var r Resource
	r.Acquire(50, 50)
	r.Reset()
	if r.FreeAt() != 0 || r.Busy != 0 {
		t.Error("Reset did not clear state")
	}
	if end := r.Acquire(0, 1); end != 1 {
		t.Errorf("after reset end = %d, want 1", end)
	}
}

// Property: completion time is never before arrival+occupancy, and Busy
// equals the sum of occupancies.
func TestResourceAcquireProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		var r Resource
		var busy Time
		now := Time(0)
		for _, v := range raw {
			occ := Time(v%16) + 1
			now += Time(v % 7)
			end := r.Acquire(now, occ)
			if end < now+occ {
				return false
			}
			busy += occ
		}
		return r.Busy == busy
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBankedSpreadsByKey(t *testing.T) {
	b := NewBanked(4)
	// Same key queues; different keys proceed in parallel.
	end0 := b.Acquire(0, 0, 50)
	end0b := b.Acquire(0, 0, 50)
	end1 := b.Acquire(1, 0, 50)
	if end0 != 50 || end0b != 100 {
		t.Errorf("same-bank serialization: %d, %d", end0, end0b)
	}
	if end1 != 50 {
		t.Errorf("different bank delayed: %d", end1)
	}
	if b.Busy() != 150 {
		t.Errorf("Busy = %d, want 150", b.Busy())
	}
}

func TestBankedModulo(t *testing.T) {
	b := NewBanked(4)
	// Keys 0 and 4 collide on the same bank.
	b.Acquire(0, 0, 50)
	if end := b.Acquire(4, 0, 50); end != 100 {
		t.Errorf("keys 0 and 4 should share a bank: end = %d", end)
	}
}

func TestBankedMinimumOneBank(t *testing.T) {
	b := NewBanked(0)
	if end := b.Acquire(123, 10, 5); end != 15 {
		t.Errorf("zero-bank fallback broken: %d", end)
	}
}

func TestQueueRandomizedAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q Queue
	var want []Time
	for i := 0; i < 1000; i++ {
		tm := Time(rng.Intn(10000))
		q.Push(Event{Time: tm})
		want = append(want, tm)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := 0; i < 1000; i++ {
		e, ok := q.Pop()
		if !ok || e.Time != want[i] {
			t.Fatalf("pop %d = %v (ok=%v), want %d", i, e.Time, ok, want[i])
		}
	}
}

// TestEventSize pins Event at 16 bytes: two events per host cache line, and
// ring indexing compiles to a shift.
func TestEventSize(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n != 16 {
		t.Errorf("sizeof(Event) = %d, want 16", n)
	}
}
