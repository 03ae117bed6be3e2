package workload

import (
	"ascoma/internal/addr"
	"ascoma/internal/params"
)

const (
	radixHomePages = 128 // 1024 global key pages across 8 nodes
	radixPrivPages = 8
	radixIters     = 4
	radixScatter   = 96 * 1024 // scattered permutation references per node per iteration
	radixRunLen    = 4         // blocks touched per permutation run (one bucket segment)
	radixWriteMix  = 32        // every 32nd scattered reference is a write
	radixThink     = 4
)

// NewRadix builds radix at the given scale divisor.
//
// It models the SPLASH-2 radix sort (2M keys, radix 1024). Per Section
// 5 it is the stress case for every page-caching policy: "radix exhibits
// almost no spatial locality. Every node accesses every page of shared data
// at some time during execution. As such, it is an extreme example of an
// application where fine tuning of the S-COMA page cache will backfire —
// each page is roughly as 'hot' as any other, so the page cache should
// simply be loaded with some reasonable set of 'hot' pages and left alone."
// Table 6 reports ~91% of its (page, node) pairs crossing the relocation
// threshold. Pure S-COMA is ~2.5x worse than CC-NUMA at pressures as low as
// 30%; R-NUMA is ~2x worse at 90%; AS-COMA stays within a few percent of
// CC-NUMA.
//
// Shape: each iteration a node ranks its own keys (a local sequential
// sweep) and then performs the permutation: accesses scattered uniformly
// over the entire global key array at cache-line granularity, with a
// fraction of writes. The scattered revisits accumulate per-page refetch
// counts from every node on essentially every page.
func NewRadix(scale int) Generator {
	nodes := 8
	home := scaled(radixHomePages, scale, 16)
	scatter := int64(scaled(radixScatter, scale, 4096))
	b := NewPrograms("radix", nodes, home, radixPrivPages)
	totalBytes := pageBytes(home * nodes)
	global := b.Section(0) // sections are contiguous: one global array

	barrier := 0
	for n := 0; n < nodes; n++ {
		pr := b.Program(n)
		for it := 0; it < radixIters; it++ {
			// Rank the local keys.
			pr.Walk(b.Section(n), pageBytes(home), params.LineSize, 1, Read, radixThink)
			// Private histogram buckets.
			pr.WalkRW(addr.PrivateRegion(n), pageBytes(radixPrivPages), params.LineSize, 1, 2, 2)
			// Merge the local histogram into the global one under the
			// rank lock (the serial prefix-sum step of radix sort).
			pr.Lock(it)
			pr.WalkRW(b.Section(0), pageBytes(1), params.LineSize, 1, 2, 2)
			pr.Unlock(it)
			pr.Barrier(barrier + 2*it)
			// Permutation: scattered runs over the whole key array.
			// Each run touches one line in each of a few successive
			// 128-byte blocks — a bucket segment — so neither the RAC
			// nor the L1 can amortize it: every reference in the run
			// goes to a distinct block on a random page. This is the
			// paper's "almost no spatial locality": each page is about
			// as hot as any other.
			pr.ScatterRuns(global, totalBytes, params.BlockSize, scatter,
				radixRunLen, radixWriteMix, radixThink, seedFor("radix", n, it))
			pr.Barrier(barrier + 2*it + 1)
		}
	}
	return b
}

func init() { Register("radix", NewRadix) }
