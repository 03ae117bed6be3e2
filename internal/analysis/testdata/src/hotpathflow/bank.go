package hotpathflow

// Tiered-bank corpus entry, modeled on internal/mem: the bank-access
// root (Memory.Acquire there) is hot, the row-policy helper it reaches
// must stay allocation-free, and the demotion path below a cut runs at
// daemon cadence where allocation is fine.

//ascoma:hotpath
func acquireTiered(bank, t int64) int64 {
	t += rowOccupancy(bank)
	t += demoteCold(int(bank))
	return t
}

// rowOccupancy is hot through the bank-access root, like the row-buffer
// state machine: allocating a row tag per access would melt the model.
func rowOccupancy(bank int64) int64 {
	open := make([]int64, 8) // want `hot via .*acquireTiered → .*rowOccupancy: make allocates`
	return open[bank&7]
}

// demoteCold cuts the closure: demotion runs at pageout-daemon cadence,
// not per memory access.
//
//ascoma:hotpath-stop demotions run at daemon wake cadence, off the access path
func demoteCold(n int) int64 {
	moved := make([]int64, n) // behind the cut: ok
	return int64(len(moved))
}
