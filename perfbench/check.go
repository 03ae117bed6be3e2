package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sync"

	"ascoma"
	"ascoma/internal/stats"
)

// pinsJSON holds the expected output of every config the benchmark can
// simulate and every figure it renders. Regenerate it after an intentional
// model change with `bash perfbench/run.sh --pin` (see README.md).
//
//go:embed pins.json
var pinsJSON []byte

// goldenPath is the repository's own golden-checksum file; every pinned
// config that is also in that matrix must carry the same checksum.
const goldenPath = "testdata/golden_stats.json"

// pins maps a config or figure key to its expected checksum.
type pins map[string]string

func loadPins() (pins, error) {
	var p pins
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return p, nil
}

// agreeWithGolden fails when a pinned config that the golden matrix also
// covers carries a different checksum, so the benchmark can never pin an
// output the repository's own determinism test rejects.
func (p pins) agreeWithGolden(goldenJSON []byte) error {
	var golden map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return fmt.Errorf("%s: %w", goldenPath, err)
	}
	matched := 0
	for k, want := range golden {
		got, ok := p[goldenAlias(k)]
		if !ok {
			continue
		}
		if got != want {
			return fmt.Errorf("pins.json: %s pinned %s but %s has %s", k, got, goldenPath, want)
		}
		matched++
	}
	if matched == 0 {
		return fmt.Errorf("pins.json: no config overlaps %s", goldenPath)
	}
	return nil
}

// goldenScale is the scale of the repository's golden matrix.
const goldenScale = 8

// cfgKey names a config in pins.json: the golden test's arch/app@pressure
// key extended with the scale and, when not the default, the quantum.
// Cores is absent: results are bit-identical at every core count.
func cfgKey(cfg ascoma.Config) string {
	k := fmt.Sprintf("%v/%s@%d/s%d", cfg.Arch, cfg.Workload, cfg.Pressure, max(cfg.Scale, 1))
	if cfg.Quantum != 0 {
		k += fmt.Sprintf("/q%d", cfg.Quantum)
	}
	return k
}

// goldenAlias converts a golden-matrix key to the pins key of that config.
func goldenAlias(goldenKey string) string {
	return fmt.Sprintf("%s/s%d", goldenKey, goldenScale)
}

func figKey(app string, scale int) string { return fmt.Sprintf("figure/%s/s%d", app, scale) }

// statsChecksum hashes a run's complete statistics exactly as the
// repository's golden test does: FNV-64a over their JSON encoding.
func statsChecksum(st *stats.Machine) string {
	blob, err := json.Marshal(st)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	return hashHex(blob)
}

func hashHex(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// check compares a checksum with its pin. A mismatch or a missing pin is
// an error naming the key, so the caller can count and print it.
func (p pins) check(key, got string) error {
	want, ok := p[key]
	switch {
	case !ok:
		return fmt.Errorf("%s: no pinned checksum (got %s)", key, got)
	case got != want:
		return fmt.Errorf("%s: checksum %s, pinned %s", key, got, want)
	}
	return nil
}

// tally counts operations attempted and failed. A failed operation is one
// that returned an error or produced output that does not match its pin.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
}

// record counts one operation; a non-nil err marks it failed and is
// printed, so a wrong output is never silent.
func (t *tally) record(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", err)
	}
}

// fail marks n already-recorded operations failed after a late check.
func (t *tally) fail(n int64, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failed += n
	fmt.Fprintln(os.Stderr, "perfbench: FAILED:", err)
}

func (t *tally) counts() (attempted, failed int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed
}

// writePins encodes p as indented JSON (encoding/json sorts map keys).
func writePins(path string, p pins) error {
	blob, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
