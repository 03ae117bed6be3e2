package directory

import (
	"math/rand"
	"testing"

	"ascoma/internal/addr"
)

// TestProtocolInvariantsUnderRandomOps drives the directory with a long
// random mix of protocol operations and checks the MSI invariants after
// every step:
//
//  1. Modified implies the copyset is exactly the owner's bit.
//  2. Uncached implies an empty copyset.
//  3. SharedState implies a non-empty copyset.
//  4. Refetch counters never decrease except by explicit reset or flush.
func TestProtocolInvariantsUnderRandomOps(t *testing.T) {
	const nodes = 8
	rec := &recorder{}
	d := New(nodes, 0, 32, rec.invalidate, rec.writeback)
	pages := []addr.Page{0x20000, 0x20001, 0x20002}
	for i, p := range pages {
		d.ForceHome(p, i%nodes)
	}
	rng := rand.New(rand.NewSource(42))

	check := func(step int) {
		for _, p := range pages {
			for i := 0; i < 32; i++ {
				b := p.BlockAt(i)
				st, cs := d.State(b)
				switch st {
				case Modified:
					e, _ := d.entry(p)
					owner := e.blocks[i].owner
					if cs != uint64(1)<<owner {
						t.Fatalf("step %d: Modified block %v copyset %b owner %d", step, b, cs, owner)
					}
				case Uncached:
					if cs != 0 {
						t.Fatalf("step %d: Uncached block %v copyset %b", step, b, cs)
					}
				case SharedState:
					if cs == 0 {
						t.Fatalf("step %d: Shared block %v with empty copyset", step, b)
					}
				}
			}
		}
	}

	for step := 0; step < 20000; step++ {
		p := pages[rng.Intn(len(pages))]
		b := p.BlockAt(rng.Intn(32))
		node := rng.Intn(nodes)
		home := d.Home(p)
		switch rng.Intn(6) {
		case 0, 1: // read fetch
			if node != home {
				d.Fetch(node, b, false, false)
			}
		case 2: // write fetch
			if node != home {
				d.Fetch(node, b, true, false)
			}
		case 3: // home write
			d.HomeWrite(b)
		case 4: // dirty writeback
			d.WritebackDirty(node, b)
		case 5: // page flush (remap)
			if node != home {
				d.FlushNode(p, node)
			}
		}
		if step%100 == 0 {
			check(step)
		}
	}
	check(20000)
}

// TestRefetchCountersMonotonicUntilReset verifies counters only grow under
// fetches and only clear on explicit reset.
func TestRefetchCountersMonotonicUntilReset(t *testing.T) {
	rec := &recorder{}
	d := New(4, 0, 1000, rec.invalidate, rec.writeback)
	p := addr.Page(0x30000)
	d.ForceHome(p, 0)
	b := p.BlockAt(0)
	var last uint32
	for i := 0; i < 50; i++ {
		d.Fetch(1, b, false, false)
		c := d.Refetches(p, 1)
		if c < last {
			t.Fatalf("counter decreased: %d -> %d", last, c)
		}
		last = c
	}
	if last == 0 {
		t.Fatal("counter never grew")
	}
	d.ResetRefetch(p, 1)
	if d.Refetches(p, 1) != 0 {
		t.Error("reset failed")
	}
}

// TestCopysetNeverContainsInvalidNodes: after invalidations the victims are
// gone from the copyset (the recorder confirms the callbacks matched the
// removed bits).
func TestCopysetNeverContainsInvalidNodes(t *testing.T) {
	rec := &recorder{}
	d := New(8, 0, 32, rec.invalidate, rec.writeback)
	p := addr.Page(0x40000)
	d.ForceHome(p, 0)
	b := p.BlockAt(0)
	for n := 1; n < 8; n++ {
		d.Fetch(n, b, false, false)
	}
	rec.reset()
	d.Fetch(1, b, true, false)
	if len(rec.invals) != 6 {
		t.Fatalf("%d invalidations, want 6", len(rec.invals))
	}
	_, cs := d.State(b)
	for _, e := range rec.invals {
		if cs&(1<<uint(e.node)) != 0 {
			t.Errorf("invalidated node %d still in copyset", e.node)
		}
	}
}
