package machine

import (
	"strings"
	"testing"

	"ascoma/internal/params"
	"ascoma/internal/stats"
	"ascoma/internal/workload"
)

// critProbe: every node enters the same critical section several times,
// doing a little shared work inside and private work outside.
func critProbe(nodes, rounds int) *workload.Programs {
	gen := newProbe(nodes, 1, 2)
	for n := 0; n < nodes; n++ {
		pr := gen.Program(n)
		for r := 0; r < rounds; r++ {
			pr.Lock(1)
			pr.Walk(gen.Section(0), 4*params.LineSize, params.LineSize, 1, workload.Write, 5)
			pr.Unlock(1)
			pr.Walk(gen.Section(n), 16*params.LineSize, params.LineSize, 1, workload.Read, 5)
		}
		pr.Barrier(0)
	}
	return gen
}

func TestLockMutualExclusionSerializes(t *testing.T) {
	// With contention, the run takes at least the sum of all critical
	// sections (they serialize), and SYNC time is substantial.
	_, st := run(t, params.CCNUMA, critProbe(4, 8), 50)
	var sync int64
	for i := range st.Nodes {
		sync += st.Nodes[i].Time[stats.Sync]
	}
	if sync == 0 {
		t.Fatal("no SYNC time under lock contention")
	}
	// Time conservation still holds with lock parking.
	for i := range st.Nodes {
		n := &st.Nodes[i]
		if n.TotalTime() != n.FinishTime {
			t.Errorf("node %d: categories %d != finish %d", i, n.TotalTime(), n.FinishTime)
		}
	}
}

func TestLockUncontendedIsCheap(t *testing.T) {
	// A single node taking a lock nobody contends for pays only the
	// atomic's latency.
	gen := newProbe(2, 1, 0)
	gen.Program(1).Lock(7)
	gen.Program(1).Unlock(7)
	_, st := run(t, params.CCNUMA, gen, 50)
	sync := st.Nodes[1].Time[stats.Sync]
	p := params.Default()
	if sync == 0 || sync > 4*p.RemoteMemCycles() {
		t.Errorf("uncontended lock cost %d cycles", sync)
	}
}

func TestLockFIFOHandoff(t *testing.T) {
	// Three nodes contend; everyone eventually gets the lock and the run
	// completes — FIFO handoff guarantees progress.
	_, st := run(t, params.CCNUMA, critProbe(3, 5), 50)
	if st.ExecTime == 0 {
		t.Fatal("run did not progress")
	}
}

func TestUnlockWithoutHoldFails(t *testing.T) {
	gen := newProbe(2, 1, 0)
	gen.Program(1).Unlock(3)
	m, err := New(Config{Arch: params.CCNUMA, Pressure: 50}, gen)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "does not hold") {
		t.Errorf("bad unlock: err = %v", err)
	}
}

func TestUnreleasedLockDeadlocks(t *testing.T) {
	gen := newProbe(2, 1, 0)
	gen.Program(0).Lock(5)
	// Node 0 exits holding the lock; node 1 blocks forever.
	gen.Program(1).Lock(5)
	gen.Program(1).Unlock(5)
	m, err := New(Config{Arch: params.CCNUMA, Pressure: 50}, gen)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("unreleased lock: err = %v", err)
	}
}

func TestLockWaiterNotCountedAtBarrier(t *testing.T) {
	// Node 1 holds the lock through a long critical section while node 2
	// waits for it; node 0 sits at the barrier. The barrier must not
	// release until nodes 1 and 2 arrive.
	gen := newProbe(3, 1, 4)
	gen.Program(0).Barrier(0)
	gen.Program(1).Lock(1)
	gen.Program(1).Walk(gen.Section(1), 64*params.LineSize, params.LineSize, 4, workload.Read, 20)
	gen.Program(1).Unlock(1)
	gen.Program(1).Barrier(0)
	gen.Program(2).Lock(1)
	gen.Program(2).Unlock(1)
	gen.Program(2).Barrier(0)
	_, st := run(t, params.CCNUMA, gen, 50)
	// All three nodes finish together at the barrier release.
	f := st.Nodes[0].FinishTime
	if st.Nodes[1].FinishTime != f || st.Nodes[2].FinishTime != f {
		t.Errorf("finish times diverge: %d %d %d",
			st.Nodes[0].FinishTime, st.Nodes[1].FinishTime, st.Nodes[2].FinishTime)
	}
}

// TestLockTraceRoundTrip: lock/unlock ops survive trace record/replay and
// produce identical simulations.
func TestLockTraceRoundTrip(t *testing.T) {
	gen := critProbe(3, 4)
	_, direct := run(t, params.CCNUMA, critProbe(3, 4), 50)
	tr := workload.Record(gen)
	m, err := New(Config{Arch: params.CCNUMA, Pressure: 50}, tr)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if direct.ExecTime != replayed.ExecTime {
		t.Errorf("trace replay diverged: %d vs %d", direct.ExecTime, replayed.ExecTime)
	}
}

// TestLockQueueFIFO drives one mutex's waiter queue directly: waiters get
// the mutex in the order they parked, the queue drains to a free mutex,
// and an emptied queue starts over.
func TestLockQueueFIFO(t *testing.T) {
	m, err := New(Config{Arch: params.CCNUMA, Pressure: 50}, newProbe(4, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	const id = 9
	acquire := func(n int, wantBlocked bool) {
		t.Helper()
		if _, blocked := m.acquireLock(m.nodes[n], id, 0); blocked != wantBlocked {
			t.Fatalf("node %d acquire: blocked = %v, want %v", n, blocked, wantBlocked)
		}
	}
	release := func(n, wantOwner int) {
		t.Helper()
		if _, err := m.releaseLock(m.nodes[n], id, 0); err != nil {
			t.Fatal(err)
		}
		l := m.lockFor(id, false)
		if wantOwner < 0 {
			if l.held {
				t.Fatalf("node %d released: owner %d, want a free mutex", n, l.owner)
			}
		} else if !l.held || l.owner != wantOwner {
			t.Fatalf("node %d released: held=%v owner=%d, want owner %d", n, l.held, l.owner, wantOwner)
		}
	}
	acquire(0, false)
	acquire(2, true)
	acquire(1, true)
	acquire(3, true)
	release(0, 2)
	acquire(0, true) // parks behind 1 and 3
	release(2, 1)
	release(1, 3)
	release(3, 0)
	release(0, -1)
	acquire(3, false)
	acquire(1, true)
	release(3, 1)
	release(1, -1)
}
