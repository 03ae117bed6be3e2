package workload

// TestProfileDigests pins every field of the estimator's structural
// profile — page classes, barrier intervals, the reuse histogram,
// episode, fault and page counts — for every registered workload at
// scales 64 and 8, and for the six applications at paper scale (skipped
// under -short). TestWorkloadDigests pins the streams a profile is built
// from; this pins what the replay makes of them, so any change to the
// builder that moves one counter of one class fails here.
//
// Regenerate testdata/profile_digests.json after an *intentional* change
// to the profile with:
//
//	go test ./internal/workload -run TestProfileDigests -update-profiles

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"testing"
)

var updateProfiles = flag.Bool("update-profiles", false, "rewrite testdata/profile_digests.json from the current profile builder")

const profileDigestPath = "testdata/profile_digests.json"

// profileApps are the paper's six applications, the workloads pinned at
// paper scale.
var profileApps = []string{"barnes", "em3d", "fft", "lu", "ocean", "radix"}

// profileDigest hashes every field of p.
func profileDigest(p *Profile) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(vs ...int64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	h.Write([]byte(p.Name))
	put(int64(p.Nodes), int64(p.HomePagesPerNode), int64(p.PrivatePagesPerNode), p.Barriers, p.MaxRemotePages)
	put(int64(len(p.PerNode)))
	for n := range p.PerNode {
		np := &p.PerNode[n]
		put(int64(n)|1<<62, np.Refs, np.RemotePages, np.Faults, np.Episodes)
		put(np.ReuseHist[:]...)
		put(int64(len(np.Classes)))
		for _, c := range np.Classes {
			put(c.Pages, c.S, c.C, c.F, c.R, c.O, c.V, c.X, c.Shar, c.HomeW)
		}
		put(int64(len(np.Intervals)))
		for _, iv := range np.Intervals {
			put(iv.Think, iv.L1Hits, iv.HomeMisses, iv.PrivMisses, iv.RemoteMisses, iv.Faults, iv.LockOps)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// profileDigestCases lists the name/scale pairs the digest file pins.
func profileDigestCases(short bool) []memoKey {
	var cs []memoKey
	for _, scale := range []int{64, 8} {
		for _, name := range Names() {
			cs = append(cs, memoKey{name, scale})
		}
	}
	if !short {
		for _, name := range profileApps {
			cs = append(cs, memoKey{name, 1})
		}
	}
	return cs
}

func profileDigestKey(k memoKey) string { return fmt.Sprintf("%s/%d", k.name, k.scale) }

func TestProfileDigests(t *testing.T) {
	short := testing.Short() && !*updateProfiles
	got := map[string]string{}
	for _, k := range profileDigestCases(short) {
		g, err := New(k.name, k.scale)
		if err != nil {
			t.Fatal(err)
		}
		got[profileDigestKey(k)] = profileDigest(buildProfile(g))
	}
	if *updateProfiles {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(profileDigestPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	blob, err := os.ReadFile(profileDigestPath)
	if err != nil {
		t.Fatalf("missing digest file (run with -update-profiles to create): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	for key, d := range got {
		if w, ok := want[key]; !ok {
			t.Errorf("%s: not in digest file (run -update-profiles)", key)
		} else if w != d {
			t.Errorf("%s: profile digest %s, want %s", key, d, w)
		}
	}
	if full := len(profileDigestCases(false)); len(want) != full {
		t.Errorf("digest file has %d profiles, %d are pinned", len(want), full)
	}
}
