package workload

import (
	"slices"

	"ascoma/internal/addr"
)

// Trace is a fully materialized workload: the page placement plus every
// node's reference sequence. Traces make runs exactly reproducible across
// generator changes, allow diffing reference streams, and let external
// traces drive the simulator. They are stored as the reference section of
// an obs trace file (internal/obs, Recording.Refs).
type Trace struct {
	TraceName string
	NumNodes  int
	HomePages int
	PrivPages int
	Placement map[addr.Page]int
	Refs      [][]Ref
}

// Record materializes a generator into a Trace.
func Record(g Generator) *Trace {
	t := &Trace{
		TraceName: g.Name() + "-trace",
		NumNodes:  g.Nodes(),
		HomePages: g.HomePagesPerNode(),
		PrivPages: g.PrivatePagesPerNode(),
		Placement: make(map[addr.Page]int),
		Refs:      make([][]Ref, g.Nodes()),
	}
	g.Place(func(p addr.Page, home int) { t.Placement[p] = home })
	for n := 0; n < g.Nodes(); n++ {
		s := g.Stream(n)
		for {
			r, ok := s.Next()
			if !ok {
				break
			}
			t.Refs[n] = append(t.Refs[n], r)
		}
	}
	return t
}

// Trace satisfies Generator, replaying the recorded references.

// Name returns the trace name.
func (t *Trace) Name() string { return t.TraceName }

// Nodes returns the recorded node count.
func (t *Trace) Nodes() int { return t.NumNodes }

// HomePagesPerNode returns the recorded home footprint.
func (t *Trace) HomePagesPerNode() int { return t.HomePages }

// PrivatePagesPerNode returns the recorded private footprint.
func (t *Trace) PrivatePagesPerNode() int { return t.PrivPages }

// Place replays the recorded placement in ascending page order. Placement
// order is observable — the VM hands out physical frames in allocation
// order — so iterating the map directly would make frame assignment (and
// every downstream conflict pattern) vary run to run.
func (t *Trace) Place(place func(p addr.Page, home int)) {
	pages := make([]addr.Page, 0, len(t.Placement))
	//ascoma:allow-nondet keys are collected and sorted before use
	for p := range t.Placement {
		pages = append(pages, p)
	}
	slices.Sort(pages)
	for _, p := range pages {
		place(p, t.Placement[p])
	}
}

// Stream replays node i's recorded references.
func (t *Trace) Stream(node int) Stream {
	return &traceStream{refs: t.Refs[node]}
}

type traceStream struct {
	refs []Ref
	i    int
}

func (s *traceStream) Next() (Ref, bool) {
	if s.i >= len(s.refs) {
		return Ref{}, false
	}
	r := s.refs[s.i]
	s.i++
	return r, true
}
