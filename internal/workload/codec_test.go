package workload_test

import (
	"testing"

	"ascoma/internal/addr"
	"ascoma/internal/obs"
	"ascoma/internal/workload"
)

// roundTrip stores tr in the reference section of a trace file and decodes
// it back. The ASCOMAFR container is the only on-disk form of a Trace.
func roundTrip(t *testing.T, tr *workload.Trace) *workload.Trace {
	t.Helper()
	rec, err := obs.DecodeRecording(obs.AppendRecording(nil, &obs.Recording{Refs: tr}))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Refs == nil {
		t.Fatal("decoded recording has no reference section")
	}
	return rec.Refs
}

func TestTraceEncodeDecodeRoundTrip(t *testing.T) {
	g, err := workload.New("uniform", 32)
	if err != nil {
		t.Fatal(err)
	}
	tr := workload.Record(g)
	back := roundTrip(t, tr)
	if back.NumNodes != tr.NumNodes || back.TraceName != tr.TraceName ||
		back.HomePages != tr.HomePages || back.PrivPages != tr.PrivPages {
		t.Error("header fields lost")
	}
	if len(back.Placement) != len(tr.Placement) {
		t.Errorf("placements: %d vs %d", len(back.Placement), len(tr.Placement))
	}
	for p, h := range tr.Placement {
		if got, ok := back.Placement[p]; !ok || got != h {
			t.Fatalf("page %v home %d (present %v), want %d", p, got, ok, h)
		}
	}
	for n := range tr.Refs {
		if len(back.Refs[n]) != len(tr.Refs[n]) {
			t.Fatalf("node %d refs: %d vs %d", n, len(back.Refs[n]), len(tr.Refs[n]))
		}
		for i := range tr.Refs[n] {
			if back.Refs[n][i] != tr.Refs[n][i] {
				t.Fatalf("node %d ref %d: %v vs %v", n, i, back.Refs[n][i], tr.Refs[n][i])
			}
		}
	}
}

func TestTraceOpEncoding(t *testing.T) {
	lock := addr.SharedBase + 64
	tr := &workload.Trace{
		TraceName: "t", NumNodes: 1, HomePages: 1, PrivPages: 0,
		Placement: map[addr.Page]int{addr.PageOf(addr.SharedBase): 0},
		Refs: [][]workload.Ref{{
			{Addr: addr.SharedBase, Op: workload.Read, Think: 3},
			{Addr: addr.SharedBase + 32, Op: workload.Write, Think: 0},
			{Addr: 1, Op: workload.Barrier},
			{Addr: lock, Op: workload.Lock, Think: 5},
			{Addr: lock, Op: workload.Unlock},
		}},
	}
	back := roundTrip(t, tr)
	if len(back.Refs) != 1 || len(back.Refs[0]) != len(tr.Refs[0]) {
		t.Fatalf("refs = %v, want %v", back.Refs, tr.Refs)
	}
	ops := []workload.Op{workload.Read, workload.Write, workload.Barrier, workload.Lock, workload.Unlock}
	for i, want := range ops {
		if back.Refs[0][i].Op != want {
			t.Errorf("ref %d op = %v, want %v", i, back.Refs[0][i].Op, want)
		}
		if back.Refs[0][i].Addr != tr.Refs[0][i].Addr {
			t.Errorf("ref %d addr = %v, want %v", i, back.Refs[0][i].Addr, tr.Refs[0][i].Addr)
		}
	}
	if back.Refs[0][0].Think != 3 || back.Refs[0][3].Think != 5 {
		t.Error("think lost")
	}
}
