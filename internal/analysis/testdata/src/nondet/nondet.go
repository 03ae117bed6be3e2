// Package nondet is the test corpus for the nondet analyzer: sources of
// run-to-run variation that must never reach event scheduling, statistics,
// or serialized output.
package nondet

import (
	"math/rand"
	"sort"
	"time"
)

// Config stands in for a workload configuration carrying an explicit seed.
type Config struct{ Seed int64 }

func clockReads() int64 {
	t := time.Now()    // want `call to time\.Now in a deterministic package`
	d := time.Since(t) // want `call to time\.Since`
	return int64(d)
}

func globalRand() int {
	return rand.Intn(6) // want `rand\.Intn draws from the global random source`
}

// seededFromConfig is the required pattern: every generator is constructed
// from an explicit seed derived from the run's configuration, never from
// the global source or the clock.
func seededFromConfig(cfg Config) int {
	r := rand.New(rand.NewSource(cfg.Seed)) // explicit seed: ok
	return r.Intn(6)
}

func seededFromClock() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano())) // want `call to time\.Now`
}

func mapOrder(m map[string]int64) []string {
	var keys []string
	for k := range m { // want `map iteration order is randomized`
		keys = append(keys, k)
	}
	return keys
}

func mapOrderAllowed(m map[string]int64) int64 {
	var total int64
	//ascoma:allow-nondet commutative sum; order-independent
	for _, v := range m {
		total += v
	}
	return total
}

// A hatch without a reason does not suppress anything.
func mapOrderBareHatch(m map[string]int64) int64 {
	var total int64
	//ascoma:allow-nondet
	for _, v := range m { // want `map iteration order is randomized`
		total += v
	}
	return total
}

// scanResult stands in for one worker's output in a parallel merge:
// per-node deltas that must be folded into the global statistics in node
// order.
type scanResult struct {
	node   int
	cycles int64
	hits   int64
}

// mergeByMap is the worker merge path done wrong: collecting per-worker
// results into a map and folding them in iteration order. Even though the
// sums commute, the temptation generalizes to non-commutative merges (last
// write wins, first error reported), so the analyzer flags the range
// itself.
func mergeByMap(results map[int]scanResult) (cycles int64) {
	for _, r := range results { // want `map iteration order is randomized`
		cycles += r.cycles
	}
	return cycles
}

// mergeByNode is the required shape: results land in a slice indexed by
// node id and the commit loop walks it in ascending node order, so the
// merge is identical no matter which worker produced which entry.
func mergeByNode(results []scanResult) (cycles, hits int64) {
	for _, r := range results { // slice order == node order: ok
		cycles += r.cycles
		hits += r.hits
	}
	return cycles, hits
}

func sliceOrder(s []string) []string {
	out := make([]string, 0, len(s))
	for _, v := range s { // slices iterate in order: ok
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// jobFarm mirrors internal/jobs, newly added to DeterministicPackages: a
// manager tracking in-flight work must order its walk and stamp nothing
// with the wall clock, or identical runs produce different dispatch logs.
type jobFarm struct {
	inflight map[int]string
}

func (f *jobFarm) drain() []string {
	var done []string
	for _, name := range f.inflight { // want `map iteration order is randomized`
		done = append(done, name)
	}
	sort.Strings(done)
	return done
}

func (f *jobFarm) stamp() int64 {
	return time.Now().UnixNano() // want `call to time\.Now`
}
