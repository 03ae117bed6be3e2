package runcache

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"
)

// goldenDigests pairs each keyVersion with the SHA-256 of the golden
// checksums (testdata/golden_stats.json) its results were simulated
// under. Keys do not cover the simulator's code, so a change that moves a
// golden checksum would let disk and peer caches serve results of the old
// model under unchanged keys. Such a change bumps keyVersion and adds a
// row here; rows are never edited.
var goldenDigests = map[string]string{
	"ascoma-run-v1": "cf6f8e99da0907a7f471eeea55fddefcbf3fbe2463e878e35c72fe9e5706fba2",
}

func TestKeyVersionTracksGoldens(t *testing.T) {
	blob, err := os.ReadFile("../../testdata/golden_stats.json")
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	if got, want := hex.EncodeToString(sum[:]), goldenDigests[keyVersion]; got != want {
		t.Errorf("golden_stats.json has digest %s, but keyVersion %q was cut for %q: the goldens moved, so bump keyVersion and add its digest to goldenDigests", got, keyVersion, want)
	}
}
