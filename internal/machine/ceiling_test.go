package machine

import (
	"testing"

	"ascoma/internal/params"
	"ascoma/internal/workload"
)

// TestPressureCeilingCoherenceChecked: the same low-pressure run
// certifies pressures without the checker and nothing with it.
func TestPressureCeilingCoherenceChecked(t *testing.T) {
	for _, check := range []bool{false, true} {
		gen, err := workload.New("fft", 16)
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(Config{Arch: params.ASCOMA, Pressure: 10, CheckCoherence: check}, gen)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		got := m.PressureCeiling()
		m.Release()
		if check && got != 0 {
			t.Errorf("coherence-checked run: ceiling %d, want 0", got)
		}
		if !check && got < 10 {
			t.Errorf("plain run: ceiling %d, want at least its own 10%%", got)
		}
	}
}

// TestNodePagesLeavesAPool: the resident set fills pressure% of a node,
// rounding the node up, and at least one page stays free.
func TestNodePagesLeavesAPool(t *testing.T) {
	for _, c := range []struct{ resident, pressure, want int }{
		{100, 50, 200}, {100, 30, 334}, {100, 99, 102}, {1, 99, 2}, {7, 10, 70},
	} {
		if got := nodePages(c.resident, c.pressure); got != c.want {
			t.Errorf("nodePages(%d, %d) = %d, want %d", c.resident, c.pressure, got, c.want)
		}
	}
}
