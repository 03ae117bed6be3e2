package machine

import (
	"testing"

	"ascoma/internal/params"
	"ascoma/internal/workload"
)

// Each node's memory bus is a sim.Resource occupied for BusCycles per
// transaction; these tests pin that wiring at the machine level.

func TestNodeBusTransactionOccupancy(t *testing.T) {
	p := params.Default()
	// One local home miss on node 1 is exactly one bus transaction.
	gen := newProbe(2, 1, 0)
	gen.Program(1).Walk(gen.Section(1), params.LineSize, params.LineSize, 1, workload.Read, 0)
	m, _ := run(t, params.CCNUMA, gen, 50)
	if bus, _, _, _ := m.Utilization(1); bus != p.BusCycles {
		t.Errorf("node 1 bus busy = %d, want %d", bus, p.BusCycles)
	}
	if bus, _, _, _ := m.Utilization(0); bus != 0 {
		t.Errorf("idle node 0 bus busy = %d, want 0", bus)
	}
}

func TestNodeBusTransactionsSerialize(t *testing.T) {
	m, err := New(Config{Arch: params.CCNUMA, Pressure: 50}, newProbe(2, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	p := m.p
	nd := m.nodes[0]
	// A RAC hit holds the bus for BusCycles and completes RACHitCycles
	// after its bus phase starts.
	if end := m.racAccess(nd, 0); end != p.RACHitCycles {
		t.Errorf("first access end = %d, want %d", end, p.RACHitCycles)
	}
	// An overlapping access waits for the first transaction's bus phase.
	if end := m.racAccess(nd, 3); end != p.BusCycles+p.RACHitCycles {
		t.Errorf("overlapping access end = %d, want %d", end, p.BusCycles+p.RACHitCycles)
	}
	// After an idle gap the bus is free again.
	if end := m.racAccess(nd, 100000); end != 100000+p.RACHitCycles {
		t.Errorf("idle-gap access end = %d, want %d", end, 100000+p.RACHitCycles)
	}
	if nd.bus.Busy != 3*p.BusCycles {
		t.Errorf("bus busy = %d, want %d", nd.bus.Busy, 3*p.BusCycles)
	}
}

func TestNodeBusResetOnRecycle(t *testing.T) {
	gen, err := workload.New("uniform", 16)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := run(t, params.CCNUMA, gen, 50)
	if bus, _, _, _ := m.Utilization(0); bus == 0 {
		t.Fatal("run left node 0's bus unused")
	}
	m.recycle()
	for i, nd := range m.nodes {
		if nd.bus.Busy != 0 || nd.bus.FreeAt() != 0 {
			t.Fatalf("node %d: recycle left bus busy=%d freeAt=%d", i, nd.bus.Busy, nd.bus.FreeAt())
		}
	}
	if end := m.racAccess(m.nodes[0], 0); end != m.p.RACHitCycles {
		t.Errorf("after recycle end = %d, want %d", end, m.p.RACHitCycles)
	}
}
