package runcache

import (
	"fmt"
	"slices"

	"ascoma"
)

// schedule hands out RunAll's cells so that finished runs can fill their
// neighbours. Cells that differ only in Pressure form a group. A finished
// run certifies every pressure up to its PressureCeiling, so a cell at or
// below the ceiling of a finished run in its group is filled from that
// run instead of simulated. To give runs that chance, a claim skips cells
// whose group has a run in flight. Skipped cells come back first once
// their group goes idle, or as soon as a finished run covers them; when
// only skipped cells of busy groups remain, the highest pressure starts.
// On a one-slot Runner no group is busy at a claim, so cells start in
// slice order. Claims only advance queues that hold each cell (or finish)
// once, so claiming is linear in the number of cells. Callers serialize.
type schedule struct {
	cells []ascoma.Config
	group []*cellGroup // by cell
	taken []bool
	next  int          // slice-order cursor: cells before it are taken or skipped
	ready []*cellGroup // groups to revisit: gone idle, or given a higher ceiling
	byP   []int        // every cell, highest pressure first, for the last resort
}

type cellGroup struct {
	busy    int            // simulations in flight
	best    *ascoma.Result // the finished result with the highest ceiling
	skipped []int          // cells skipped while busy, in slice order
}

func newSchedule(cells []ascoma.Config) *schedule {
	s := &schedule{cells: cells, group: make([]*cellGroup, len(cells)), taken: make([]bool, len(cells))}
	groups := make(map[Key]*cellGroup)
	for i, cfg := range cells {
		cfg.Pressure = 0
		key, err := KeyOf(cfg)
		if err != nil || cfg.Obs != nil || cfg.SampleInterval > 0 {
			key = Key(fmt.Sprint(i)) // a group of its own: these runs certify nothing
		}
		if groups[key] == nil {
			groups[key] = &cellGroup{}
		}
		s.group[i] = groups[key]
		s.byP = append(s.byP, i)
	}
	slices.SortStableFunc(s.byP, func(a, b int) int { return cells[b].Pressure - cells[a].Pressure })
	return s
}

// claim returns the next cell to start and, when a finished run covers
// it, the result to fill it from; -1 once every cell is taken.
func (s *schedule) claim() (int, *ascoma.Result) {
	for ; len(s.ready) > 0; s.ready = s.ready[1:] {
		for g := s.ready[0]; len(g.skipped) > 0; {
			i := g.skipped[0]
			if !s.taken[i] && g.busy > 0 && s.cover(i) == nil {
				break
			}
			g.skipped = g.skipped[1:]
			if !s.taken[i] {
				return s.take(i)
			}
		}
	}
	for ; s.next < len(s.cells); s.next++ {
		i, g := s.next, s.group[s.next]
		if g.busy == 0 || s.cover(i) != nil {
			s.next++
			return s.take(i)
		}
		g.skipped = append(g.skipped, i)
	}
	// Every cell left was skipped and its group is busy.
	for ; len(s.byP) > 0; s.byP = s.byP[1:] {
		if i := s.byP[0]; !s.taken[i] {
			return s.take(i)
		}
	}
	return -1, nil
}

// cover returns the finished run of cell i's group whose ceiling covers
// the cell's pressure, or nil.
func (s *schedule) cover(i int) *ascoma.Result {
	if best := s.group[i].best; best != nil && s.cells[i].Pressure <= best.PressureCeiling {
		return best
	}
	return nil
}

func (s *schedule) take(i int) (int, *ascoma.Result) {
	s.taken[i] = true
	src := s.cover(i)
	if src == nil {
		s.group[i].busy++
	}
	return i, src
}

// finish records cell i's outcome (res is nil on failure); simulated
// says whether take started a run for it rather than a fill.
func (s *schedule) finish(i int, simulated bool, res *ascoma.Result) {
	g := s.group[i]
	if simulated {
		g.busy--
	}
	raised := res != nil && (g.best == nil || res.PressureCeiling > g.best.PressureCeiling)
	if raised {
		g.best = res
	}
	if (g.busy == 0 || raised) && len(g.skipped) > 0 {
		s.ready = append(s.ready, g)
	}
}
