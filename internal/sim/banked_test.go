package sim

// Banked.Init aliases b.banks to the struct's own inline array for small
// bank counts, which makes an initialized Banked a must-not-copy value: a
// copy's banks slice still points into the *original's* storage. The
// machine arena recycles released machines, banks included, through a
// sync.Pool shared by concurrent runs, so these tests pin the aliasing
// contract and prove that re-Init on a recycled value always lands on the
// value's own storage with fully reset banks.

import (
	"sync"
	"testing"
)

// TestBankedInlineAliasing pins the storage contract: up to 8 banks live in
// the struct's inline array, beyond that on the heap.
func TestBankedInlineAliasing(t *testing.T) {
	for n := 1; n <= 8; n++ {
		var b Banked
		b.Init(n)
		if &b.banks[0] != &b.inline[0] {
			t.Fatalf("n=%d: banks not backed by the inline array", n)
		}
		if len(b.banks) != n {
			t.Fatalf("n=%d: got %d banks", n, len(b.banks))
		}
	}
	var b Banked
	b.Init(9)
	if &b.banks[0] == &b.inline[0] {
		t.Fatal("n=9: banks unexpectedly backed by the 8-entry inline array")
	}
}

// TestBankedCopyHazard documents why an initialized Banked must not be
// copied: the copy's slice header still references the original's inline
// storage, so writes through the copy corrupt the original.
func TestBankedCopyHazard(t *testing.T) {
	var orig Banked
	orig.Init(4)

	copied := orig // the hazard under test
	copied.Acquire(0, 0, 10)
	if got := orig.banks[0].FreeAt(); got != 10 {
		t.Fatalf("expected the copy to write through to the original (FreeAt=10), got %d — has the aliasing contract changed?", got)
	}

	// Re-Init heals a copied value by re-pointing banks at its own inline
	// array and zeroing it.
	copied.Init(4)
	if &copied.banks[0] != &copied.inline[0] {
		t.Fatal("re-Init did not re-anchor banks to the copy's own storage")
	}
	if got := copied.banks[0].FreeAt(); got != 0 {
		t.Fatalf("re-Init left a bank busy until %d", got)
	}
}

// TestBankedPoolRecycle drives Banked values through a sync.Pool from many
// goroutines, the way the machine arena recycles released machines.
// Every Get must come back (after Init) with banks anchored to the
// recycled value's own inline array and every bank idle, regardless of
// what the previous owner did or which goroutine that was.
func TestBankedPoolRecycle(t *testing.T) {
	pool := &sync.Pool{New: func() any { return new(Banked) }}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 200; iter++ {
				b := pool.Get().(*Banked)
				n := (g+iter)%8 + 1 // 1..8: always the inline path
				b.Init(n)
				if &b.banks[0] != &b.inline[0] {
					errs <- "recycled Banked not anchored to its own inline array"
					return
				}
				for i := range b.banks {
					if b.banks[i].FreeAt() != 0 || b.banks[i].Busy != 0 {
						errs <- "recycled Banked has a non-idle bank after Init"
						return
					}
				}
				// Dirty every bank so the next owner's Init has real
				// state to erase.
				for k := 0; k < n; k++ {
					b.Acquire(uint64(k), Time(iter), Time(g+1))
				}
				pool.Put(b)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}
