package machine

import (
	"testing"

	"ascoma/internal/params"
	"ascoma/internal/workload"
)

// TestPressureCeilingCoherenceChecked: the same low-pressure run
// certifies pressures and architectures without the checker and nothing
// with it.
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
		got, same := m.PressureCeiling(), m.SameArchs()
		m.Release()
		if check && (got != 0 || same != 0) {
			t.Errorf("coherence-checked run: ceiling %d, same %v, want 0 and none", got, same)
		}
		if !check && (got < 10 || !same.Has(params.SCOMA)) {
			t.Errorf("plain run: ceiling %d, same %v, want at least its own 10%% and S-COMA", got, same)
		}
	}
}

// TestNewRejectsUnknownArch: an architecture outside the six is a
// configuration error, not a panic.
func TestNewRejectsUnknownArch(t *testing.T) {
	for _, a := range []params.Arch{-1, params.MIGNUMA + 1} {
		gen, err := workload.New("fft", 16)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := New(Config{Arch: a, Pressure: 10}, gen); err == nil {
			t.Errorf("New accepted architecture %d", int(a))
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
