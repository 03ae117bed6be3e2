package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// minBeyond is the number of samples that must lie above a tail
// percentile before it is reported: with fewer, the "percentile" is just
// the largest sample or two and says nothing about the distribution.
const minBeyond = 10

// median returns the median of xs (the mean of the middle pair for an
// even count) and false for an empty slice. xs is not modified.
func median(xs []float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2], true
	}
	return (s[n/2-1] + s[n/2]) / 2, true
}

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs. A
// tail percentile (q > 0.5) is reported only when at least minBeyond
// samples rank above it; otherwise ok is false.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, false
	}
	rank := int(math.Ceil(q*float64(n) - 1e-9)) // 1-based nearest rank; the epsilon absorbs q's binary rounding
	if q > 0.5 && n-rank < minBeyond {
		return 0, false
	}
	return sorted(xs)[rank-1], true
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// span is one timed call into a layer, recorded from the benchmark's side
// of the call boundary. Parent is the index of the enclosing span in the
// recorder, or -1 for a root.
type span struct {
	name       string
	parent     int
	start, end time.Duration // offsets from the recorder's epoch
}

// spans is an in-memory span recorder, safe for concurrent use (the serve
// workload's clients record concurrently). It is read once the timed
// phase is over. A nil *spans records nothing, so untraced runs pay one
// nil check per call boundary.
type spans struct {
	mu    sync.Mutex
	epoch time.Time
	list  []span
}

func newSpans() *spans { return &spans{epoch: time.Now()} }

// begin opens a span and returns its index for end.
func (s *spans) begin(name string, parent int) int {
	if s == nil {
		return -1
	}
	now := time.Since(s.epoch)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list = append(s.list, span{name: name, parent: parent, start: now})
	return len(s.list) - 1
}

// end closes span i.
func (s *spans) end(i int) {
	if s == nil {
		return
	}
	now := time.Since(s.epoch)
	s.mu.Lock()
	s.list[i].end = now
	s.mu.Unlock()
}

// durations returns the duration of every span with the given name.
func (s *spans) durations(name string) []time.Duration {
	if s == nil {
		return nil
	}
	var out []time.Duration
	for _, sp := range s.list {
		if sp.name == name {
			out = append(out, sp.end-sp.start)
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of its interval
// covered by its children. Children may overlap each other (concurrent
// requests under one pass), so the covered part is the length of the union
// of the child intervals, clipped to the parent.
func (s *spans) selfTimes() []time.Duration {
	kids := make([][]int, len(s.list))
	for i, sp := range s.list {
		if sp.parent >= 0 {
			kids[sp.parent] = append(kids[sp.parent], i)
		}
	}
	out := make([]time.Duration, len(s.list))
	for i, sp := range s.list {
		ivs := make([][2]time.Duration, 0, len(kids[i]))
		for _, k := range kids[i] {
			c := s.list[k]
			lo, hi := max(c.start, sp.start), min(c.end, sp.end)
			if hi > lo {
				ivs = append(ivs, [2]time.Duration{lo, hi})
			}
		}
		out[i] = sp.end - sp.start - unionLen(ivs)
	}
	return out
}

// spanTotals is one span name's count, total time and self time.
type spanTotals struct {
	N       int     `json:"n"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// byName sums the recorded spans per name: where the traced phase's time
// went, call boundary by call boundary.
func (s *spans) byName() map[string]spanTotals {
	self := s.selfTimes()
	out := map[string]spanTotals{}
	for i, sp := range s.list {
		t := out[sp.name]
		t.N++
		t.TotalMS += ms(sp.end - sp.start)
		t.SelfMS += ms(self[i])
		out[sp.name] = t
	}
	return out
}

// unionLen returns the total length covered by a set of intervals.
func unionLen(ivs [][2]time.Duration) time.Duration {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total, curLo, curHi time.Duration
	open := false
	for _, iv := range ivs {
		switch {
		case !open:
			curLo, curHi, open = iv[0], iv[1], true
		case iv[0] <= curHi:
			curHi = max(curHi, iv[1])
		default:
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// ms converts a duration to float64 milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func toMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
