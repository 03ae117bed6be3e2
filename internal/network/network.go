// Package network models the node interconnect: a fat tree of fixed-radix
// crossbar switches (4x4 in the paper), with per-hop wire propagation, a
// fall-through delay per switch, and contention modeled at the destination
// input ports only — exactly the scope the paper states: "2-cycle
// propagation, 4x4 switch topology, port contention (only) modeled,
// fall-through delay 4 cycles".
package network

import (
	"ascoma/internal/params"
	"ascoma/internal/sim"
)

// Net is the machine interconnect.
type Net struct {
	nodes       int
	radix       int
	prop        int64
	fallThrough int64
	portOcc     int64
	inPort      []sim.Resource // one input port per node

	// lat caches the uncontended one-way latency for every node pair
	// (row-major, nodes*nodes entries): the topology is static, and the
	// per-message hop walk was one of the simulator's hottest functions.
	lat []sim.Time
}

// New builds the interconnect for the given configuration.
func New(p *params.Params) *Net {
	n := &Net{
		nodes:       p.Nodes,
		radix:       p.SwitchRadix,
		prop:        p.NetPropCycles,
		fallThrough: p.NetFallThrough,
		portOcc:     p.NetPortOccupancy,
		inPort:      make([]sim.Resource, p.Nodes),
	}
	n.lat = make([]sim.Time, p.Nodes*p.Nodes)
	for from := 0; from < p.Nodes; from++ {
		for to := 0; to < p.Nodes; to++ {
			h := int64(n.Hops(from, to))
			n.lat[from*p.Nodes+to] = h*(n.prop+n.fallThrough) + n.prop
		}
	}
	return n
}

// Hops returns the number of switch traversals between two nodes in the
// radix-R fat tree: nodes under the same leaf switch traverse one switch;
// each additional tree level adds two (up and down).
func (n *Net) Hops(from, to int) int {
	if from == to {
		return 0
	}
	a, b := from/n.radix, to/n.radix
	hops := 1
	for a != b {
		hops += 2
		a /= n.radix
		b /= n.radix
	}
	return hops
}

// Latency returns the uncontended one-way latency of a message from one
// node to another.
func (n *Net) Latency(from, to int) sim.Time {
	return n.lat[from*n.nodes+to]
}

// Send delivers a message from node `from` to node `to`, leaving at time t.
// The destination input port serializes arrivals. The returned time is when
// the message is available at the destination.
func (n *Net) Send(from, to int, t sim.Time) sim.Time {
	if from == to {
		return t
	}
	arrive := t + n.Latency(from, to)
	return n.inPort[to].Acquire(arrive, n.portOcc)
}

// PortBusy returns the total occupied cycles of node i's input port.
func (n *Net) PortBusy(i int) sim.Time { return n.inPort[i].Busy }
