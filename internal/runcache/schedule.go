package runcache

import (
	"fmt"
	"slices"

	"ascoma"
	"ascoma/internal/core"
)

// schedule hands out RunAll's cells so that finished runs can fill their
// neighbours. Cells that differ only in Arch and Pressure form a family. A
// finished run of (A, P) certifies its own architecture and every one in
// its SameArchs, at P and at every pressure up to its PressureCeiling: a
// cell (B, P') of its family with B among them and P' == P or P' <= the
// ceiling is filled from that run instead of simulated.
//
// To give runs that chance, a claim skips cells that a run in flight could
// still cover. A run certifies only architectures that map a first remote
// page as its own does (core.SCOMAFirst), so the cells of a family split
// into groups by that mapping, and a claim skips the cells of a group with
// a run in flight; the other group's cells start. A skipped cell comes back
// first as soon as a finished run covers it, or when its group goes idle;
// when only skipped cells of busy groups remain, the highest pressure
// starts. On a one-slot Runner no group is busy at a claim, so cells start
// in slice order. A finish scans its family's skipped cells and a claim
// scans its family's finished runs, so a grid costs at most the number of
// cells times the size of its largest family. Callers serialize.
type schedule struct {
	cells []ascoma.Config
	group []*cellGroup // by cell
	taken []bool
	next  int          // slice-order cursor: cells before it are taken or skipped
	fills []int        // skipped cells a finished run covers, handed out first
	ready []*cellGroup // groups gone idle with skipped cells
	byP   []int        // every cell, highest pressure first, for the last resort
}

// family holds the finished simulations that can fill its cells.
type family struct {
	runs   []source
	groups []*cellGroup
}

// source is a finished simulation and the cell it ran.
type source struct {
	arch     ascoma.Arch
	pressure int
	res      *ascoma.Result
}

// covers reports whether the source run certifies cell c of its family.
func (r source) covers(c ascoma.Config) bool {
	return (c.Arch == r.arch || r.res.SameArchs.Has(c.Arch)) &&
		(c.Pressure == r.pressure || c.Pressure <= r.res.PressureCeiling)
}

type cellGroup struct {
	fam     *family
	busy    int   // simulations in flight
	skipped []int // cells skipped while busy, in slice order
}

func newSchedule(cells []ascoma.Config) *schedule {
	s := &schedule{cells: cells, group: make([]*cellGroup, len(cells)), taken: make([]bool, len(cells))}
	type groupKey struct {
		fam        Key
		scomaFirst bool
	}
	families := make(map[Key]*family)
	groups := make(map[groupKey]*cellGroup)
	for i, cfg := range cells {
		cfg.Arch, cfg.Pressure = 0, 0
		key, err := KeyOf(cfg)
		if err != nil || cfg.Obs != nil || cfg.SampleInterval > 0 {
			key = Key(fmt.Sprint(i)) // a family of its own: these runs certify nothing
		}
		fam := families[key]
		if fam == nil {
			fam = &family{}
			families[key] = fam
		}
		gk := groupKey{key, core.SCOMAFirst(cells[i].Arch)}
		g := groups[gk]
		if g == nil {
			g = &cellGroup{fam: fam}
			groups[gk] = g
			fam.groups = append(fam.groups, g)
		}
		s.group[i] = g
		s.byP = append(s.byP, i)
	}
	slices.SortStableFunc(s.byP, func(a, b int) int { return cells[b].Pressure - cells[a].Pressure })
	return s
}

// claim returns the next cell to start and, when a finished run covers
// it, the result to fill it from; -1 once every cell is taken.
func (s *schedule) claim() (int, *ascoma.Result) {
	for ; len(s.fills) > 0; s.fills = s.fills[1:] {
		if i := s.fills[0]; !s.taken[i] {
			s.fills = s.fills[1:]
			return s.take(i)
		}
	}
	for ; len(s.ready) > 0; s.ready = s.ready[1:] {
		for g := s.ready[0]; g.busy == 0 && len(g.skipped) > 0; {
			i := g.skipped[0]
			g.skipped = g.skipped[1:]
			if !s.taken[i] {
				return s.take(i)
			}
		}
	}
	for ; s.next < len(s.cells); s.next++ {
		i := s.next
		if s.group[i].busy == 0 || s.cover(i) != nil {
			s.next++
			return s.take(i)
		}
		s.group[i].skipped = append(s.group[i].skipped, i)
	}
	// Every cell left was skipped and its group is busy.
	for ; len(s.byP) > 0; s.byP = s.byP[1:] {
		if i := s.byP[0]; !s.taken[i] {
			return s.take(i)
		}
	}
	return -1, nil
}

// cover returns a finished run of cell i's family that certifies the
// cell, or nil.
func (s *schedule) cover(i int) *ascoma.Result {
	for _, r := range s.group[i].fam.runs {
		if r.covers(s.cells[i]) {
			return r.res
		}
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
// says whether take started a run for it rather than a fill. A finished
// simulation joins its family's runs and queues the skipped cells it
// covers.
func (s *schedule) finish(i int, simulated bool, res *ascoma.Result) {
	g := s.group[i]
	if simulated {
		g.busy--
		if res != nil {
			src := source{s.cells[i].Arch, s.cells[i].Pressure, res}
			g.fam.runs = append(g.fam.runs, src)
			for _, h := range g.fam.groups {
				for _, j := range h.skipped {
					if !s.taken[j] && src.covers(s.cells[j]) {
						s.fills = append(s.fills, j)
					}
				}
			}
		}
	}
	if g.busy == 0 && len(g.skipped) > 0 {
		s.ready = append(s.ready, g)
	}
}
