package hotpath

// Rule-set corpus for hotpath.CheckAllocs: every function body is checked,
// so each allocating construct is flagged and each look-alike that does not
// allocate is left alone.

import (
	"fmt"
	"math"
)

type event struct {
	t    int64
	node int32
}

func allocating(buf []event, e event, name string) ([]event, string) {
	buf = append(buf, e)        // want `append may grow and allocate`
	scratch := make([]event, 8) // want `make allocates`
	_ = scratch
	p := new(event) // want `new allocates`
	_ = p
	fmt.Println(e.t)    // want `fmt\.Println allocates`
	_ = any(e.node)     // want `conversion to interface type any allocates`
	label := name + ":" // want `string concatenation allocates`
	label += name       // want `string concatenation allocates`
	return buf, label
}

func nested(buf []event, e event) []event {
	f := func() { // want `closure in a hot path allocates`
		buf = append(buf, e) // want `append may grow and allocate`
	}
	f()
	return buf
}

func quiet(buf []event, e event, s fmt.Stringer, x float64) (int64, float64) {
	total := e.t + int64(e.node) // integer addition and a concrete conversion
	total += int64(len(buf))
	var v any = s
	_ = v.(fmt.Stringer) // a type assertion between interfaces boxes nothing
	_ = fmt.Stringer(s)  // interface-to-interface conversion boxes nothing
	buf[0] = e
	return total, math.Abs(x) + 1 // calls outside fmt are not flagged
}
