package network

import (
	"testing"
	"testing/quick"

	"ascoma/internal/params"
)

func defaultNet() *Net {
	p := params.Default()
	return New(&p)
}

func TestHopsSameNode(t *testing.T) {
	n := defaultNet()
	for i := 0; i < 8; i++ {
		if h := n.Hops(i, i); h != 0 {
			t.Errorf("Hops(%d,%d) = %d, want 0", i, i, h)
		}
	}
}

func TestHopsSameLeafSwitch(t *testing.T) {
	n := defaultNet()
	// With radix 4, nodes 0-3 share a leaf switch.
	if h := n.Hops(0, 3); h != 1 {
		t.Errorf("Hops(0,3) = %d, want 1", h)
	}
	if h := n.Hops(4, 7); h != 1 {
		t.Errorf("Hops(4,7) = %d, want 1", h)
	}
}

func TestHopsAcrossSwitches(t *testing.T) {
	n := defaultNet()
	if h := n.Hops(0, 4); h != 3 {
		t.Errorf("Hops(0,4) = %d, want 3 (up, across, down)", h)
	}
}

func TestHopsSymmetric(t *testing.T) {
	n := defaultNet()
	f := func(a, b uint8) bool {
		x, y := int(a%8), int(b%8)
		return n.Hops(x, y) == n.Hops(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLatencySymmetricAndPositive(t *testing.T) {
	n := defaultNet()
	for a := 0; a < 8; a++ {
		for b := 0; b < 8; b++ {
			if a == b {
				continue
			}
			l := n.Latency(a, b)
			if l <= 0 {
				t.Errorf("Latency(%d,%d) = %d", a, b, l)
			}
			if l != n.Latency(b, a) {
				t.Errorf("asymmetric latency %d<->%d", a, b)
			}
		}
	}
}

func TestSendSelfIsFree(t *testing.T) {
	n := defaultNet()
	if got := n.Send(2, 2, 100); got != 100 {
		t.Errorf("self send took %d cycles", got-100)
	}
}

func TestSendAddsLatencyAndPortOccupancy(t *testing.T) {
	p := params.Default()
	n := New(&p)
	t0 := n.Send(0, 1, 0)
	want := n.Latency(0, 1) + p.NetPortOccupancy
	if t0 != want {
		t.Errorf("Send = %d, want %d", t0, want)
	}
}

func TestInputPortContention(t *testing.T) {
	p := params.Default()
	n := New(&p)
	// Two messages from different sources arrive at node 1's input port
	// simultaneously; the second queues behind the first.
	a := n.Send(0, 1, 0)
	b := n.Send(2, 1, 0)
	if b <= a {
		t.Errorf("no port contention: first=%d second=%d", a, b)
	}
	if n.PortBusy(1) != 2*p.NetPortOccupancy {
		t.Errorf("PortBusy = %d, want %d", n.PortBusy(1), 2*p.NetPortOccupancy)
	}
	if n.PortBusy(0) != 0 {
		t.Error("source port charged")
	}
}

func TestLargerMachineHops(t *testing.T) {
	p := params.Default()
	p.Nodes = 64
	n := New(&p)
	// 64 nodes, radix 4: three switch levels. Nodes 0 and 63 traverse
	// 1 + 2*2 = 5 switches.
	if h := n.Hops(0, 63); h != 5 {
		t.Errorf("Hops(0,63) = %d, want 5", h)
	}
	if h := n.Hops(0, 15); h != 3 {
		t.Errorf("Hops(0,15) = %d, want 3", h)
	}
}

// TestConfigureMatchesNew: a recycled Net, configured for a run after
// serving another, behaves as a fresh one built for that run: ports idle,
// latencies rebuilt when the topology parameters change and kept when
// they do not.
func TestConfigureMatchesNew(t *testing.T) {
	p := params.Default()
	n := New(&p)
	n.Send(0, 1, 0)
	steps := []func(*params.Params){
		func(*params.Params) {},
		func(q *params.Params) { q.NetPortOccupancy++ },
		func(q *params.Params) { q.NetPropCycles++ },
		func(q *params.Params) { q.NetFallThrough++ },
		func(q *params.Params) { q.SwitchRadix = 2 },
		func(q *params.Params) { q.Nodes = 16 },
		func(q *params.Params) { q.Nodes = 8 },
	}
	for i, change := range steps {
		change(&p)
		n.Configure(&p)
		fresh := New(&p)
		for a := 0; a < p.Nodes; a++ {
			if n.PortBusy(a) != 0 {
				t.Errorf("step %d: port %d busy %d after Configure", i, a, n.PortBusy(a))
			}
			for b := 0; b < p.Nodes; b++ {
				if n.Latency(a, b) != fresh.Latency(a, b) {
					t.Errorf("step %d: Latency(%d,%d) = %d, fresh %d", i, a, b, n.Latency(a, b), fresh.Latency(a, b))
				}
			}
		}
		if got, want := n.Send(0, 1, 0), fresh.Send(0, 1, 0); got != want {
			t.Errorf("step %d: Send = %d, fresh %d", i, got, want)
		}
	}
}
