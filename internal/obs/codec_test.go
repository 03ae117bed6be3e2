package obs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"

	"ascoma/internal/addr"
	"ascoma/internal/workload"
)

// sampleRecording builds a recording with both instruments populated,
// optionally wrapped past the ring capacity.
func sampleRecording(wrap bool) *Recording {
	rec := NewRecording(8, 500)
	n := 5
	if wrap {
		n = 19
	}
	for i := 0; i < n; i++ {
		rec.Events.Clock = int64(i * 37)
		rec.Events.Emit(Kind(1+i%int(NumKinds()-1)), i%3, uint32(i*11), uint32(i))
	}
	rec.Epochs.SetNodes(3)
	for e := 0; e < 4; e++ {
		rec.Epochs.Begin(int64(500 * (e + 1)))
		for nd := 0; nd < 3; nd++ {
			for p := Probe(0); p < NumProbes; p++ {
				rec.Epochs.Set(p, nd, int64(e*100+nd*10+int(p)))
			}
		}
	}
	return rec
}

func TestCodecRoundTrip(t *testing.T) {
	for _, wrap := range []bool{false, true} {
		rec := sampleRecording(wrap)
		blob := AppendRecording(nil, rec)

		dec, err := DecodeRecording(blob)
		if err != nil {
			t.Fatalf("wrap=%v: decode: %v", wrap, err)
		}
		if dec.Events.Cap() != rec.Events.Cap() || dec.Events.Total() != rec.Events.Total() {
			t.Fatalf("wrap=%v: cap/total %d/%d want %d/%d",
				wrap, dec.Events.Cap(), dec.Events.Total(), rec.Events.Cap(), rec.Events.Total())
		}
		want, got := rec.Events.Events(), dec.Events.Events()
		if len(want) != len(got) {
			t.Fatalf("wrap=%v: %d events decoded, want %d", wrap, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("wrap=%v: event %d = %+v, want %+v", wrap, i, got[i], want[i])
			}
		}
		if dec.Epochs.Len() != rec.Epochs.Len() || dec.Epochs.Nodes() != rec.Epochs.Nodes() ||
			dec.Epochs.Interval != rec.Epochs.Interval {
			t.Fatalf("wrap=%v: epoch geometry mismatch", wrap)
		}
		for e := 0; e < rec.Epochs.Len(); e++ {
			if dec.Epochs.Time(e) != rec.Epochs.Time(e) {
				t.Fatalf("epoch %d time mismatch", e)
			}
			for nd := 0; nd < 3; nd++ {
				for p := Probe(0); p < NumProbes; p++ {
					if dec.Epochs.Value(p, e, nd) != rec.Epochs.Value(p, e, nd) {
						t.Fatalf("wrap=%v: value(%v,%d,%d) mismatch", wrap, p, e, nd)
					}
				}
			}
		}

		// Decode -> re-encode is byte-identical: the codec is canonical.
		again := AppendRecording(nil, dec)
		if !bytes.Equal(blob, again) {
			t.Fatalf("wrap=%v: re-encode differs (%d vs %d bytes)", wrap, len(blob), len(again))
		}
	}
}

func TestCodecEventsOnly(t *testing.T) {
	rec := &Recording{Events: NewRecorder(16)}
	rec.Events.Clock = 99
	rec.Events.Emit(EvPoolLow, 1, 2, 3)
	dec, err := DecodeRecording(AppendRecording(nil, rec))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Epochs != nil {
		t.Fatal("events-only trace decoded phantom epochs")
	}
	if dec.Events.Len() != 1 || dec.Events.Events()[0].Time != 99 {
		t.Fatalf("decoded %+v", dec.Events.Events())
	}
}

func TestCodecEpochsOnly(t *testing.T) {
	ep := NewEpochs(1000)
	ep.SetNodes(1)
	ep.Begin(1000)
	ep.Set(ProbeThreshold, 0, 64)
	rec := &Recording{Epochs: ep}
	dec, err := DecodeRecording(AppendRecording(nil, rec))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Events != nil {
		t.Fatal("epochs-only trace decoded a phantom recorder")
	}
	if dec.Epochs.Value(ProbeThreshold, 0, 0) != 64 {
		t.Fatal("epoch value lost")
	}
}

func TestCodecNegativeDeltas(t *testing.T) {
	// Event times are not monotonic across node quanta: a later dispatch
	// may carry an earlier cycle. Zigzag coding must round-trip that.
	rec := &Recording{Events: NewRecorder(8)}
	for _, tm := range []int64{100, 40, 4000, 3999} {
		rec.Events.Clock = tm
		rec.Events.Emit(EvThreshold, 0, 1, 2)
	}
	dec, err := DecodeRecording(AppendRecording(nil, rec))
	if err != nil {
		t.Fatal(err)
	}
	evs := dec.Events.Events()
	for i, want := range []int64{100, 40, 4000, 3999} {
		if evs[i].Time != want {
			t.Fatalf("event %d time=%d want %d", i, evs[i].Time, want)
		}
	}
}

func TestCodecTruncationAndCorruption(t *testing.T) {
	blob := AppendRecording(nil, sampleRecording(true))

	// Every truncation of the valid trace must fail cleanly.
	for cut := 0; cut < len(blob); cut++ {
		if _, err := DecodeRecording(blob[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d decoded successfully", cut, len(blob))
		}
	}
	// A flipped byte fails the CRC.
	mut := bytes.Clone(blob)
	mut[len(mut)/2] ^= 0x40
	if _, err := DecodeRecording(mut); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corruption: err = %v, want ErrCorrupt", err)
	}
	// Garbage fails.
	if _, err := DecodeRecording([]byte("not a trace at all, sorry")); err == nil {
		t.Fatal("garbage decoded successfully")
	}
}

// TestCodecRejectsOldVersion pins that a version-2 trace, which carried
// three more probe series and three more event kinds than this build
// knows, is refused by its version word rather than misread. The header
// is patched and the CRC resealed, so the version is all that differs.
func TestCodecRejectsOldVersion(t *testing.T) {
	seal := func(version uint32) []byte {
		blob := AppendRecording(nil, sampleRecording(false))
		blob = blob[:len(blob)-4]
		binary.LittleEndian.PutUint32(blob[len(traceMagic):], version)
		return binary.LittleEndian.AppendUint32(blob, crc32.ChecksumIEEE(blob))
	}
	if _, err := DecodeRecording(seal(traceVersion)); err != nil {
		t.Fatalf("resealed current trace: %v", err)
	}
	_, err := DecodeRecording(seal(2))
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "unsupported version 2") {
		t.Fatalf("version-2 trace: err = %v, want ErrCorrupt naming unsupported version 2", err)
	}
}

func TestCodecFileRoundTrip(t *testing.T) {
	rec := sampleRecording(false)
	path := t.TempDir() + "/run.trace"
	if err := WriteFile(path, rec); err != nil {
		t.Fatal(err)
	}
	dec, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Events.Total() != rec.Events.Total() {
		t.Fatalf("total %d want %d", dec.Events.Total(), rec.Events.Total())
	}
}

// FuzzDecodeRecording drives arbitrary byte strings through the decoder:
// it must never panic or over-allocate, and anything it accepts must
// re-encode to exactly the accepted bytes (the codec is canonical).
func FuzzDecodeRecording(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendRecording(nil, sampleRecording(false)))
	f.Add(AppendRecording(nil, sampleRecording(true)))
	f.Add(AppendRecording(nil, &Recording{}))
	blob := AppendRecording(nil, sampleRecording(true))
	f.Add(blob[:len(blob)/2])
	f.Add(AppendRecording(nil, &Recording{Events: NewRecorder(4), Refs: opsTrace()}))
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := DecodeRecording(data)
		if err != nil {
			return
		}
		again := AppendRecording(nil, dec)
		if !bytes.Equal(data, again) {
			t.Fatalf("accepted input re-encodes differently: %d vs %d bytes", len(data), len(again))
		}
	})
}

// opsTrace is a hand-built two-node reference trace using every op, a
// negative think and an address stepping backwards.
func opsTrace() *workload.Trace {
	return &workload.Trace{
		TraceName: "ops", NumNodes: 2, HomePages: 1, PrivPages: 3,
		Placement: map[addr.Page]int{addr.PageOf(addr.SharedBase): 0, addr.PageOf(addr.SharedBase) + 1: 1},
		Refs: [][]workload.Ref{
			{
				{Addr: addr.SharedBase, Op: workload.Read, Think: 3},
				{Addr: addr.SharedBase + 32, Op: workload.Write},
				{Addr: 1, Op: workload.Barrier, Think: -2},
			},
			{
				{Addr: addr.SharedBase + 64, Op: workload.Lock, Think: 7},
				{Addr: addr.SharedBase + 64, Op: workload.Unlock},
			},
		},
	}
}

func TestCodecRefsRoundTrip(t *testing.T) {
	traces := []*workload.Trace{opsTrace()}
	for _, name := range []string{"uniform", "critsec"} {
		g, err := workload.New(name, 32)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, workload.Record(g))
	}
	for _, tr := range traces {
		rec := &Recording{Events: NewRecorder(4), Refs: tr}
		blob := AppendRecording(nil, rec)
		dec, err := DecodeRecording(blob)
		if err != nil {
			t.Fatalf("%s: decode: %v", tr.TraceName, err)
		}
		if !reflect.DeepEqual(dec.Refs, tr) {
			t.Fatalf("%s: decoded trace differs from the recorded one", tr.TraceName)
		}
		if again := AppendRecording(nil, dec); !bytes.Equal(blob, again) {
			t.Fatalf("%s: re-encode differs (%d vs %d bytes)", tr.TraceName, len(blob), len(again))
		}
	}
	// critsec is the workload that exercises the lock ops.
	var locks, unlocks int
	for _, refs := range traces[2].Refs {
		for _, r := range refs {
			switch r.Op {
			case workload.Lock:
				locks++
			case workload.Unlock:
				unlocks++
			}
		}
	}
	if locks == 0 || locks != unlocks {
		t.Fatalf("critsec trace: %d locks, %d unlocks", locks, unlocks)
	}
}

// withRefs seals a reference section (flag byte plus body) into an
// otherwise empty trace with a valid CRC, so a case fails on the section
// alone.
func withRefs(flag byte, body ...[]byte) []byte {
	blob := AppendRecording(nil, &Recording{})
	blob = append(blob[:len(blob)-5], flag) // drop the empty section flag and CRC
	blob = append(blob, bytes.Join(body, nil)...)
	return binary.LittleEndian.AppendUint32(blob, crc32.ChecksumIEEE(blob))
}

// uv encodes values as consecutive uvarints.
func uv(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// ref encodes one reference: op byte, zigzag address delta, zigzag think.
func ref(op byte, addrDelta, think int64) []byte {
	return append([]byte{op}, uv(zigzag(addrDelta), zigzag(think))...)
}

func TestCodecRefsRejects(t *testing.T) {
	sp := uint64(addr.PageOf(addr.SharedBase)) // a legal page
	sa := int64(addr.SharedBase) + 100         // a legal address
	name := append(uv(1), 't')                 // length 1, "t"
	geo2 := uv(2, 1, 0)                        // 2 nodes, 1 home page, 0 private
	place := uv(1, sp, 0)                      // one shared page homed at node 0
	node1 := append(uv(1), ref(0, sa, 3)...)   // one read
	node0 := uv(0)                             // an empty node section

	// The builders above make a valid trace; every case below breaks it.
	if _, err := DecodeRecording(withRefs(1, name, geo2, place, node1, node0)); err != nil {
		t.Fatalf("baseline: %v", err)
	}
	huge := uint64(999999999999999999)
	cases := []struct {
		name string
		in   []byte
		want string
	}{
		{"empty input", nil, "short header"},
		{"not a trace", []byte("nonsense\nnot a trace at all\n"), "CRC"},
		{"bad section flag", withRefs(2), "flag"},
		{"flag without section", withRefs(1), "bad varint"},
		{"name longer than payload", withRefs(1, uv(huge)), "exceeds payload"},
		{"node count 0", withRefs(1, name, uv(0, 1, 0), uv(0)), "node count"},
		{"node count 65", withRefs(1, name, uv(65, 1, 0), uv(0)), "node count"},
		{"node count 999", withRefs(1, name, uv(999, 1, 0), uv(0)), "node count"},
		{"home pages overflow", withRefs(1, name, uv(1, 1<<40, 0), uv(0), node0), "geometry"},
		{"placement count exceeds payload", withRefs(1, name, geo2, uv(huge)), "exceeds payload"},
		{"truncated placement", withRefs(1, name, geo2, uv(2, sp, 0)), "bad varint"},
		{"placed page outside the address space", withRefs(1, name, geo2, uv(1, 5, 0), node0, node0), "placed page outside"},
		{"read outside the address space", withRefs(1, name, geo2, place, uv(1), ref(0, 100, 3), node0), "reference outside"},
		{"write outside the address space", withRefs(1, name, geo2, place, uv(1), ref(1, -sa, 3), node0), "reference outside"},
		{"home out of range", withRefs(1, name, geo2, uv(1, sp, 7), node0, node0), "home out of range"},
		{"duplicate placement", withRefs(1, name, geo2, uv(2, sp, 0, 0, 1), node0, node0), "ascending"},
		{"unsorted placement", withRefs(1, name, geo2, uv(2, sp, 0, ^uint64(0)-1, 1), node0, node0), "ascending"},
		{"node declares 3 refs, holds 1", withRefs(1, name, geo2, place, uv(3), ref(0, sa, 3)), "exceeds payload"},
		{"huge ref count", withRefs(1, name, geo2, place, uv(huge)), "exceeds payload"},
		{"missing node section", withRefs(1, name, geo2, place, node1), "bad varint"},
		{"repeated node section", withRefs(1, name, geo2, place, node1, node0, node0), "trailing bytes"},
		{"ref outside a node section", withRefs(1, name, geo2, place, node0, node0, ref(0, sa, 3)), "trailing bytes"},
		{"unknown op", withRefs(1, name, geo2, place, uv(1), ref(5, sa, 3), node0), "unknown reference op"},
		{"unknown op 0xff", withRefs(1, name, geo2, place, uv(1), ref(0xff, sa, 3), node0), "unknown reference op"},
		{"think overflow", withRefs(1, name, geo2, place, uv(1), ref(0, sa, 1<<40), node0), "think"},
		{"non-canonical varint", withRefs(1, name, geo2, place, []byte{0x81, 0x00}, ref(0, sa, 3), node0), "non-canonical"},
	}
	for _, c := range cases {
		_, err := DecodeRecording(c.in)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", c.name, err)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want it to mention %q", c.name, err, c.want)
		}
	}
}
