package hotpathflow

// Root-body corpus entry: the allocation discipline applies inside the
// annotated roots themselves, not only in what they reach.

import "fmt"

type event struct {
	t    int64
	node int32
}

// dispatch stands in for the per-event dispatch loop.
//
//ascoma:hotpath
func dispatch(buf []event, e event) []event {
	buf = append(buf, e)        // want `append may grow and allocate`
	scratch := make([]event, 8) // want `make allocates`
	_ = scratch
	p := new(event) // want `new allocates`
	_ = p
	fmt.Println(e.t)                 // want `fmt\.Println allocates`
	f := func() int64 { return e.t } // want `closure in a hot path allocates`
	_ = f()
	_ = any(e.node) // want `conversion to interface type`
	return buf
}

// describe builds a label the slow, allocating way.
//
//ascoma:hotpath
func describe(name string) string {
	label := name + ":" // want `string concatenation allocates`
	label += name       // want `string concatenation allocates`
	return label
}

// push keeps a deliberate cold-branch allocation behind a hatch.
//
//ascoma:hotpath
func push(buf []event, e event) []event {
	//ascoma:allow-alloc grows only on the first fill; steady state is preallocated
	return append(buf, e)
}

type scanSeg struct {
	cycles int64
	hits   int64
}

// commitScan stands in for a merge on the event path: it applies staged
// segments to the live totals once per quantum, so it must not allocate.
//
//ascoma:hotpath
func commitScan(totals *scanSeg, segs []scanSeg, log []int64) []int64 {
	for i := range segs {
		totals.cycles += segs[i].cycles
		totals.hits += segs[i].hits
		log = append(log, segs[i].cycles) // want `append may grow and allocate`
	}
	return log
}

// stageScan is the correct shape: workers stage into a fixed-size array
// owned by the entry, so the merge is pure arithmetic on preallocated
// storage.
//
//ascoma:hotpath
func stageScan(totals *scanSeg, segs *[32]scanSeg, n int) {
	for i := 0; i < n; i++ {
		totals.cycles += segs[i].cycles
		totals.hits += segs[i].hits
	}
}

// cold is unannotated: allocation is unconstrained here.
func cold(n int) []event {
	out := make([]event, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, event{t: int64(i)})
	}
	return out
}
