// Package hotpathflow is the test corpus for the transitive hotpath
// analyzer: the allocation discipline follows every edge out of a
// //ascoma:hotpath root — plain calls, cross-package calls, and func
// values — until a cut or a hatch says otherwise.
package hotpathflow

import (
	"fmt"

	"hotpathflow/alloc"
)

// step is the hot root; everything it reaches is hot too.
//
//ascoma:hotpath
func step(n int) int {
	v := helper(n)
	v += alloc.Grow(n)
	v += slowPath(n)
	v += pooled(n)
	f := format
	v += f(n)
	//ascoma:allow-hotcall startup logging, not on the measured path
	v += logged(n)
	return v
}

// helper is hot only transitively, through step.
func helper(n int) int {
	s := make([]int, n) // want `hot via .*step → .*helper: make allocates`
	return len(s)
}

// format joins the closure through the func value f in step.
func format(n int) int {
	return len(fmt.Sprintf("%d", n)) // want `hot via .*step → .*format: fmt\.Sprintf allocates`
}

// slowPath cuts the closure: the scan below it is never hot.
//
//ascoma:hotpath-stop drains at window cadence, off the per-reference path
func slowPath(n int) int {
	s := make([]int, n) // behind the cut: ok
	return len(s)
}

// pooled is hot, but its one allocation is hatched with a reason.
func pooled(n int) int {
	//ascoma:allow-alloc grows once to the high-water mark, then reused
	s := make([]int, n)
	return len(s)
}

// logged allocates freely: the only edge to it is hatched at the call.
func logged(n int) int {
	return len(fmt.Sprintf("start %d", n)) // edge hatched in step: ok
}
