package workload

// TestWorkloadDigests pins every registered workload's observable shape at
// one small scale: name, node count, footprints, page placement and every
// node's full reference stream. The machine goldens cover only the six
// applications through their simulated statistics; this covers the
// synthetic generators too, and any change to how a generator is built
// that moves a single reference, think cycle or home assignment fails it.
//
// Regenerate testdata/workload_digests.json after an *intentional* change
// to a generator with:
//
//	go test ./internal/workload -run TestWorkloadDigests -update-digests

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"testing"

	"ascoma/internal/addr"
)

var updateDigests = flag.Bool("update-digests", false, "rewrite testdata/workload_digests.json from the current generators")

const (
	digestPath  = "testdata/workload_digests.json"
	digestScale = 8
)

// workloadDigest hashes g's identity, placement and reference streams.
func workloadDigest(g Generator) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	h.Write([]byte(g.Name()))
	put(uint64(g.Nodes()))
	put(uint64(g.HomePagesPerNode()))
	put(uint64(g.PrivatePagesPerNode()))
	g.Place(func(p addr.Page, home int) {
		put(uint64(p))
		put(uint64(home))
	})
	for n := 0; n < g.Nodes(); n++ {
		put(uint64(n) | 1<<63) // node separator
		s := g.Stream(n)
		for {
			r, ok := s.Next()
			if !ok {
				break
			}
			put(uint64(r.Addr))
			put(uint64(r.Op)<<32 | uint64(uint32(r.Think)))
		}
		Recycle(s)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func TestWorkloadDigests(t *testing.T) {
	got := map[string]string{}
	for _, name := range Names() {
		g, err := New(name, digestScale)
		if err != nil {
			t.Fatal(err)
		}
		got[name] = workloadDigest(g)
	}
	if *updateDigests {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	blob, err := os.ReadFile(digestPath)
	if err != nil {
		t.Fatalf("missing digest file (run with -update-digests to create): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	for _, name := range Names() {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: not in digest file (run -update-digests)", name)
		} else if w != got[name] {
			t.Errorf("%s: digest %s, want %s", name, got[name], w)
		}
	}
	if len(want) != len(got) {
		t.Errorf("digest file has %d workloads, %d are registered", len(want), len(got))
	}
}
