package runcache

import (
	"bytes"
	"encoding/json"
	"testing"

	"ascoma"
	"ascoma/internal/stats"
)

// FuzzDecodeResult drives arbitrary payloads through decodeResult, the
// decoder behind the disk and peer backends: it must never panic, and any
// payload it accepts must carry the requested key and at least one node
// and must re-encode to a canonical payload that decodes to the same
// bytes again.
func FuzzDecodeResult(f *testing.F) {
	const key = Key("0123abcd")
	st := stats.NewMachine(2)
	st.Arch, st.Workload, st.Pressure, st.ExecTime = "AS-COMA", "fft", 70, 12345
	st.Nodes[1].Time[stats.UShMem] = 99
	valid, err := encodeResult(key, &ascoma.Result{Machine: st, ArchID: ascoma.ASCOMA,
		Samples: []ascoma.Sample{{Time: 10, Threshold: 64, FreePages: 3}}})
	if err != nil {
		f.Fatal(err)
	}
	for _, blob := range []string{
		string(valid), "", "{}", "null", `{"key":"0123abcd"}`,
		`{"key":"0123abcd","machine":null}`,
		`{"key":"0123abcd","machine":{"Nodes":[]}}`,
		`{"key":"0123abcd","machine":{"Nodes":[{}]}}`,
		`{"key":"other","machine":{"Nodes":[{}]}}`,
		`{"key":"0123abcd","KEY":"other","machine":{"Nodes":[{}]},"samples":[]}`,
		`{"key":"0123abcd","machine":{"Nodes":[{"Time":[1,2]}]},"archID":1e3}`,
		`[1,2,3]`, `{"key":"0123abcd","machine":{"Nodes":[{}]}} trailing`,
	} {
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, blob string) {
		res, err := decodeResult(key, []byte(blob), "fuzz")
		if err != nil {
			return
		}
		var d diskResult
		if err := json.Unmarshal([]byte(blob), &d); err != nil || d.Key != key {
			t.Fatalf("accepted payload %q does not carry key %q (%v)", blob, key, err)
		}
		if res.Machine == nil || len(res.Nodes) == 0 {
			t.Fatalf("accepted payload %q has no nodes", blob)
		}
		once, err := encodeResult(key, res)
		if err != nil {
			t.Fatalf("re-encode of accepted payload %q: %v", blob, err)
		}
		again, err := decodeResult(key, once, "fuzz")
		if err != nil {
			t.Fatalf("canonical payload %s rejected: %v", once, err)
		}
		twice, err := encodeResult(key, again)
		if err != nil || !bytes.Equal(once, twice) {
			t.Fatalf("payload does not round-trip:\n%s\n%s (%v)", once, twice, err)
		}
	})
}
