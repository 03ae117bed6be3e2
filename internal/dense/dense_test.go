package dense

import (
	"math/rand"
	"sort"
	"testing"
)

func TestGetMissingReturnsNil(t *testing.T) {
	var tb Table[int]
	if tb.Get(0) != nil || tb.Get(12345) != nil {
		t.Fatal("Get on an empty table must return nil")
	}
}

func TestGetOrCreateAndGet(t *testing.T) {
	var tb Table[int]
	for _, i := range []int{0, 1, chunkSize - 1, chunkSize, 7 * chunkSize, 1_000_000} {
		p := tb.GetOrCreate(i)
		if p == nil || *p != 0 {
			t.Fatalf("index %d: new entry not zero-valued", i)
		}
		*p = i + 1
		if q := tb.Get(i); q == nil || *q != i+1 {
			t.Fatalf("index %d: Get did not observe the write", i)
		}
	}
	// A neighbor in an untouched chunk is still nil.
	if tb.Get(3*chunkSize) != nil {
		t.Fatal("untouched chunk must stay unallocated")
	}
}

func TestPointerStability(t *testing.T) {
	var tb Table[int64]
	first := tb.GetOrCreate(5)
	*first = 42
	// Touch far-away indexes to force the chunk directory to grow.
	for i := 0; i < 200; i++ {
		tb.GetOrCreate(i * chunkSize)
	}
	if again := tb.Get(5); again != first {
		t.Fatal("entry address moved after table growth")
	}
	if *first != 42 {
		t.Fatal("entry value lost after table growth")
	}
}

func TestRangeOrderAndEarlyStop(t *testing.T) {
	var tb Table[int]
	for _, i := range []int{3, chunkSize + 1, 4 * chunkSize} {
		*tb.GetOrCreate(i) = i
	}
	last := -1
	seen := 0
	tb.Range(func(i int, v *int) bool {
		if i <= last {
			t.Fatalf("Range out of order: %d after %d", i, last)
		}
		last = i
		if *v != 0 {
			seen++
		}
		return true
	})
	if seen != 3 {
		t.Fatalf("Range saw %d live entries, want 3", seen)
	}
	calls := 0
	tb.Range(func(int, *int) bool { calls++; return false })
	if calls != 1 {
		t.Fatalf("Range ignored early stop: %d calls", calls)
	}
}

// TestResetMatchesMapModel runs random GetOrCreate/Get/Reset sequences at
// sparse indices against a map model of the live entries. Reset clears
// only the entries handed out since the previous Reset, so the sequences
// revisit chunks allocated before an earlier Reset: after every Reset each
// Get must return nil or a zero entry and Range must see only zero
// entries, and between Resets Range must visit exactly the live entries in
// ascending order.
func TestResetMatchesMapModel(t *testing.T) {
	// Chunk numbers spread like a VM table's sparse page-index space.
	chunks := []int{0, 1, 2, 7, 900, 1399}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tb Table[uint64]
		model := map[int]uint64{}
		seen := map[int]bool{} // every index ever handed out
		index := func() int {
			c := chunks[rng.Intn(len(chunks))]
			return c<<chunkShift + rng.Intn(chunkSize)
		}
		checkRange := func(step int) {
			var got []int
			tb.Range(func(i int, v *uint64) bool {
				if *v != model[i] {
					t.Fatalf("seed %d step %d: Range(%d) = %d, want %d", seed, step, i, *v, model[i])
				}
				got = append(got, i)
				return true
			})
			want := make([]int, 0, len(model))
			for i := range model {
				want = append(want, i)
			}
			sort.Ints(want)
			if len(got) != len(want) {
				t.Fatalf("seed %d step %d: Range visited %d entries, want %d", seed, step, len(got), len(want))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("seed %d step %d: Range visited %v, want %v", seed, step, got, want)
				}
			}
		}
		for step := 0; step < 3000; step++ {
			switch op := rng.Intn(20); {
			case op < 10:
				i := index()
				p := tb.GetOrCreate(i)
				if *p != model[i] {
					t.Fatalf("seed %d step %d: GetOrCreate(%d) = %d, want %d", seed, step, i, *p, model[i])
				}
				*p = rng.Uint64() | 1
				model[i] = *p
				seen[i] = true
			case op < 19:
				i := index()
				p := tb.Get(i)
				if v, live := model[i]; live {
					if p == nil || *p != v {
						t.Fatalf("seed %d step %d: Get(%d) lost live entry %d", seed, step, i, v)
					}
				} else if p != nil && *p != 0 {
					t.Fatalf("seed %d step %d: Get(%d) = %d, want nil or zero", seed, step, i, *p)
				}
			default:
				tb.Reset()
				clear(model)
				for i := range seen {
					if p := tb.Get(i); p != nil && *p != 0 {
						t.Fatalf("seed %d step %d: Get(%d) = %d after Reset, want nil or zero", seed, step, i, *p)
					}
				}
				tb.Range(func(i int, v *uint64) bool {
					if *v != 0 {
						t.Fatalf("seed %d step %d: Range saw %d = %d after Reset", seed, step, i, *v)
					}
					return true
				})
			}
			checkRange(step)
		}
	}
}
