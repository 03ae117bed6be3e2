package workload

import "ascoma/internal/params"

const (
	fftHomePages = 512 // source + destination matrix slabs per node
	fftPrivPages = 8
	fftChunk     = 32 // pages read from each remote section per transpose
	fftThink     = 4
)

// NewFFT builds fft at the given scale divisor.
//
// It models the SPLASH-2 FFT kernel (256K points, "tuned for cache
// sizes"). Per Section 5 and Table 6, fft is the opposite extreme from
// barnes: "only a tiny fraction of pages in fft are accessed enough to be
// eligible for relocation, so all of the hybrid architectures effectively
// become CC-NUMAs. ... fft has such high spatial locality in its references
// to remote memory that the 128-byte RAC plays a major role in satisfying
// remote accesses locally." Pure S-COMA still collapses at 90% pressure
// because every streamed remote page must be backed by a local page.
//
// Shape: local butterfly compute phases separated by one all-to-all
// transpose in which each node reads a chunk of every other node's section
// exactly once, sequentially (streaming: cold misses only, amortized by the
// RAC), writing the results into its own section.
func NewFFT(scale int) Generator {
	nodes := 8
	home := scaled(fftHomePages, scale, 16)
	chunk := scaled(fftChunk, scale, 2)
	if chunk > home/2 {
		chunk = home / 2
	}
	b := NewPrograms("fft", nodes, home, fftPrivPages)

	barrier := 0
	for n := 0; n < nodes; n++ {
		pr := b.Program(n)
		// First butterfly phase over the local slab.
		pr.WalkRW(b.Section(n), pageBytes(home), params.LineSize, 2, 2, fftThink)
		pr.Barrier(barrier)
		// Transpose: stream one chunk from each remote section exactly
		// once; interleave writes of the transposed data into the local
		// slab.
		for j := 1; j < nodes; j++ {
			r := (n + j) % nodes
			off := pageBytes((n * chunk) % (home - chunk + 1))
			pr.Walk(b.Section(r)+addrOf(off), pageBytes(chunk), params.LineSize, 1, Read, fftThink)
			own := pageBytes((j - 1) * chunk % (home - chunk + 1))
			pr.Walk(b.Section(n)+addrOf(own), pageBytes(chunk), params.LineSize, 1, Write, fftThink)
		}
		pr.Barrier(barrier + 1)
		// Second butterfly phase.
		pr.WalkRW(b.Section(n), pageBytes(home), params.LineSize, 2, 2, fftThink)
		pr.Barrier(barrier + 2)
	}
	_ = barrier
	return b
}

func init() { Register("fft", NewFFT) }
