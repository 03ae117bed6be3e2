package obs

// The trace codec: a compact, deterministic binary encoding of one
// Recording. Layout (all integers little-endian or varint):
//
//	magic    "ASCOMAFR" (8 bytes)
//	u32      format version (currently 3)
//	u32      node count (0 when no epochs were sampled)
//	u64      epoch interval in cycles (0 = no epoch probes)
//	u32      event ring capacity (0 = no event recorder)
//	u64      events ever emitted (may exceed the stored count: ring wrap)
//	u32      stored event count
//	u32      epoch count
//	u32      probe series count (must equal NumProbes)
//	events   stored-count records of
//	           zigzag-varint cycle delta from the previous event,
//	           1 byte kind, uvarint node, uvarint A, uvarint B
//	epochs   epoch-count uvarint cycle deltas (epoch stamps ascend),
//	         then for each probe, for each node, epoch-count
//	         zigzag-varint deltas along the series
//	refs     1 byte: 0 = no reference section, 1 = one follows:
//	           uvarint name length, name bytes,
//	           uvarint node count (1..64), uvarint home pages per node,
//	           uvarint private pages per node,
//	           uvarint placed-page count, then per page in ascending order
//	           a uvarint delta from the previous page (from 0 for the
//	           first; later deltas are >= 1) and a uvarint home node,
//	           then per node a uvarint ref count followed by, per ref,
//	           1 byte op, zigzag-varint address delta from the node's
//	           previous ref, zigzag-varint think cycles
//	u32      IEEE CRC-32 of everything above
//
// Delta-varint coding keeps traces compact (adaptation events cluster in
// time; epoch series move slowly; a node's references stride through
// nearby addresses), and the trailing CRC turns any truncation or
// corruption into a clean decode error. Every count is checked against the
// bytes left before anything is allocated for it. Encoding is a pure
// function of the Recording's contents, so identical runs produce
// byte-identical trace files — `make trace-check` diffs two.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"

	"ascoma/internal/addr"
	"ascoma/internal/workload"
)

var traceMagic = [8]byte{'A', 'S', 'C', 'O', 'M', 'A', 'F', 'R'}

const traceVersion = 3

// maxRefNodes bounds a reference section's node count (the simulator's
// copysets are 64-bit masks).
const maxRefNodes = 64

// ErrCorrupt is wrapped by every decode failure caused by the input bytes
// (truncation, bad magic, CRC mismatch, implausible counts).
var ErrCorrupt = errors.New("obs: corrupt trace")

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// AppendRecording appends rec's encoding to dst and returns the result.
func AppendRecording(dst []byte, rec *Recording) []byte {
	start := len(dst)
	dst = append(dst, traceMagic[:]...)

	var (
		nodes    uint32
		interval uint64
		cap32    uint32
		total    uint64
		events   []Event
		epochs   *Epochs
	)
	if rec.Events != nil {
		cap32 = uint32(rec.Events.Cap())
		total = rec.Events.Total()
		events = rec.Events.Events()
	}
	if rec.Epochs != nil {
		epochs = rec.Epochs
		nodes = uint32(epochs.Nodes())
		interval = uint64(epochs.Interval)
	}

	dst = binary.LittleEndian.AppendUint32(dst, traceVersion)
	dst = binary.LittleEndian.AppendUint32(dst, nodes)
	dst = binary.LittleEndian.AppendUint64(dst, interval)
	dst = binary.LittleEndian.AppendUint32(dst, cap32)
	dst = binary.LittleEndian.AppendUint64(dst, total)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(events)))
	var nEpochs int
	if epochs != nil {
		nEpochs = epochs.Len()
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(nEpochs))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(NumProbes))

	prev := int64(0)
	for _, ev := range events {
		dst = binary.AppendUvarint(dst, zigzag(ev.Time-prev))
		prev = ev.Time
		dst = append(dst, byte(ev.Kind))
		dst = binary.AppendUvarint(dst, uint64(ev.Node))
		dst = binary.AppendUvarint(dst, uint64(ev.A))
		dst = binary.AppendUvarint(dst, uint64(ev.B))
	}

	if epochs != nil {
		prev = 0
		for i := 0; i < nEpochs; i++ {
			t := epochs.Time(i)
			dst = binary.AppendUvarint(dst, uint64(t-prev))
			prev = t
		}
		for p := Probe(0); p < NumProbes; p++ {
			for n := 0; n < int(nodes); n++ {
				prev = 0
				for i := 0; i < nEpochs; i++ {
					v := epochs.Value(p, i, n)
					dst = binary.AppendUvarint(dst, zigzag(v-prev))
					prev = v
				}
			}
		}
	}

	if rec.Refs == nil {
		dst = append(dst, 0)
	} else {
		dst = appendRefs(append(dst, 1), rec.Refs)
	}

	crc := crc32.ChecksumIEEE(dst[start:])
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// appendRefs appends the reference section body for t.
func appendRefs(dst []byte, t *workload.Trace) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(t.TraceName)))
	dst = append(dst, t.TraceName...)
	dst = binary.AppendUvarint(dst, uint64(t.NumNodes))
	dst = binary.AppendUvarint(dst, uint64(t.HomePages))
	dst = binary.AppendUvarint(dst, uint64(t.PrivPages))
	dst = binary.AppendUvarint(dst, uint64(len(t.Placement)))
	var prev addr.Page
	t.Place(func(p addr.Page, home int) {
		dst = binary.AppendUvarint(dst, uint64(p-prev))
		dst = binary.AppendUvarint(dst, uint64(home))
		prev = p
	})
	for _, refs := range t.Refs {
		dst = binary.AppendUvarint(dst, uint64(len(refs)))
		var prevAddr addr.GVA
		for _, r := range refs {
			dst = append(dst, byte(r.Op))
			dst = binary.AppendUvarint(dst, zigzag(int64(r.Addr-prevAddr)))
			dst = binary.AppendUvarint(dst, zigzag(int64(r.Think)))
			prevAddr = r.Addr
		}
	}
	return dst
}

// WriteFile encodes rec to a file, atomically enough for trace diffing
// (full buffer, single create+write).
func WriteFile(path string, rec *Recording) error {
	return os.WriteFile(path, AppendRecording(nil, rec), 0o644)
}

// decoder is a bounds-checked cursor over the trace payload.
type decoder struct {
	buf []byte
	off int
}

func (d *decoder) fail(what string) error {
	return fmt.Errorf("%w: %s at offset %d", ErrCorrupt, what, d.off)
}

func (d *decoder) bytes(n int) ([]byte, error) {
	if n < 0 || d.off+n > len(d.buf) {
		return nil, d.fail("truncated")
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b, nil
}

func (d *decoder) u32() (uint32, error) {
	b, err := d.bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (d *decoder) u64() (uint64, error) {
	b, err := d.bytes(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// uvarintLen returns the length of v's minimal varint encoding.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, d.fail("bad varint")
	}
	// Reject non-minimal encodings: the codec is canonical, so any
	// accepted trace re-encodes to exactly the same bytes.
	if n != uvarintLen(v) {
		return 0, d.fail("non-canonical varint")
	}
	d.off += n
	return v, nil
}

// count reads a uvarint element count and rejects it unless that many
// elements of at least minBytes each fit in the bytes left, so a corrupt
// count fails here instead of sizing an allocation.
func (d *decoder) count(minBytes int) (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(d.buf)-d.off)/uint64(minBytes) {
		return 0, d.fail("count exceeds payload")
	}
	return int(v), nil
}

func (d *decoder) byte() (byte, error) {
	b, err := d.bytes(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

// DecodeRecording decodes one trace from buf. The returned Recording
// re-encodes byte-identically, so decode -> encode round-trips.
func DecodeRecording(buf []byte) (*Recording, error) {
	d := &decoder{buf: buf}
	if len(buf) < len(traceMagic)+4 {
		return nil, d.fail("short header")
	}
	crcWant := binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if crc32.ChecksumIEEE(buf[:len(buf)-4]) != crcWant {
		return nil, fmt.Errorf("%w: CRC mismatch (truncated or corrupted)", ErrCorrupt)
	}
	d.buf = buf[:len(buf)-4]

	magic, err := d.bytes(len(traceMagic))
	if err != nil {
		return nil, err
	}
	if [8]byte(magic) != traceMagic {
		return nil, d.fail("bad magic")
	}
	version, err := d.u32()
	if err != nil {
		return nil, err
	}
	if version != traceVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, version)
	}
	nodes, err := d.u32()
	if err != nil {
		return nil, err
	}
	interval, err := d.u64()
	if err != nil {
		return nil, err
	}
	ringCap, err := d.u32()
	if err != nil {
		return nil, err
	}
	total, err := d.u64()
	if err != nil {
		return nil, err
	}
	stored, err := d.u32()
	if err != nil {
		return nil, err
	}
	nEpochs, err := d.u32()
	if err != nil {
		return nil, err
	}
	nProbes, err := d.u32()
	if err != nil {
		return nil, err
	}
	if nProbes != uint32(NumProbes) {
		return nil, fmt.Errorf("%w: %d probe series, this build knows %d", ErrCorrupt, nProbes, NumProbes)
	}
	if stored > ringCap || uint64(stored) > total {
		return nil, d.fail("implausible event counts")
	}
	// Canonical-form header constraints: an absent instrument encodes as
	// all zeros, so stray nonzero fields mark a corrupt (or non-canonical)
	// trace.
	if ringCap == 0 && total != 0 {
		return nil, d.fail("event total without a recorder")
	}
	if nEpochs == 0 && interval == 0 && nodes != 0 {
		return nil, d.fail("node count without epochs")
	}
	// Each event is at least 5 bytes; each epoch sample at least 1.
	if int64(stored)*5 > int64(len(d.buf)) || int64(nEpochs)*int64(nodes) > int64(len(d.buf))+1 {
		return nil, d.fail("counts exceed payload")
	}

	rec := &Recording{}
	events := make([]Event, 0, stored)
	prev := int64(0)
	for i := uint32(0); i < stored; i++ {
		dt, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		prev += unzigzag(dt)
		kind, err := d.byte()
		if err != nil {
			return nil, err
		}
		node, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		a, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		b, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if node > uint64(^uint16(0)) || a > uint64(^uint32(0)) || b > uint64(^uint32(0)) {
			return nil, d.fail("field overflow")
		}
		events = append(events, Event{Time: prev, A: uint32(a), B: uint32(b), Kind: Kind(kind), Node: uint16(node)})
	}
	if ringCap > 0 {
		rec.Events = restore(int(ringCap), total, events)
	}

	if interval > 0 || nEpochs > 0 {
		ep := NewEpochs(int64(interval))
		ep.SetNodes(int(nodes))
		prev = 0
		for i := uint32(0); i < nEpochs; i++ {
			dt, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			prev += int64(dt)
			ep.Begin(prev)
		}
		for p := Probe(0); p < NumProbes; p++ {
			for n := 0; n < int(nodes); n++ {
				prev = 0
				for i := uint32(0); i < nEpochs; i++ {
					dv, err := d.uvarint()
					if err != nil {
						return nil, err
					}
					prev += unzigzag(dv)
					ep.vals[p][int(i)*int(nodes)+n] = prev
				}
			}
		}
		rec.Epochs = ep
	}

	switch hasRefs, err := d.byte(); {
	case err != nil:
		return nil, err
	case hasRefs == 1:
		if rec.Refs, err = d.refs(); err != nil {
			return nil, err
		}
	case hasRefs != 0:
		return nil, d.fail("bad reference section flag")
	}

	if d.off != len(d.buf) {
		return nil, d.fail("trailing bytes")
	}
	return rec, nil
}

// refs decodes a reference section body (see appendRefs).
func (d *decoder) refs() (*workload.Trace, error) {
	nameLen, err := d.count(1)
	if err != nil {
		return nil, err
	}
	name, err := d.bytes(nameLen)
	if err != nil {
		return nil, err
	}
	var geo [3]uint64 // nodes, home pages, private pages
	for i := range geo {
		if geo[i], err = d.uvarint(); err != nil {
			return nil, err
		}
		if geo[i] > math.MaxInt32 {
			return nil, d.fail("reference geometry overflow")
		}
	}
	if geo[0] < 1 || geo[0] > maxRefNodes {
		return nil, d.fail("reference node count out of range")
	}
	t := &workload.Trace{
		TraceName: string(name),
		NumNodes:  int(geo[0]),
		HomePages: int(geo[1]),
		PrivPages: int(geo[2]),
		Refs:      make([][]workload.Ref, geo[0]),
	}
	placed, err := d.count(2)
	if err != nil {
		return nil, err
	}
	t.Placement = make(map[addr.Page]int, placed)
	var page addr.Page
	for i := 0; i < placed; i++ {
		delta, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if (i > 0 && delta == 0) || page+addr.Page(delta) < page {
			return nil, d.fail("placement not strictly ascending")
		}
		page += addr.Page(delta)
		if _, ok := page.Index(); !ok {
			return nil, d.fail("placed page outside the address space")
		}
		home, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if home >= geo[0] {
			return nil, d.fail("placement home out of range")
		}
		t.Placement[page] = int(home)
	}
	for n := range t.Refs {
		count, err := d.count(3)
		if err != nil {
			return nil, err
		}
		refs := make([]workload.Ref, count)
		var a addr.GVA
		for i := range refs {
			b, err := d.byte()
			if err != nil {
				return nil, err
			}
			op := workload.Op(b)
			if op > workload.Unlock {
				return nil, d.fail("unknown reference op")
			}
			da, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			a += addr.GVA(unzigzag(da))
			// Barrier and lock refs carry an id in Addr; memory refs must
			// land in a legal region (the machine indexes their pages).
			if _, ok := addr.PageOf(a).Index(); !ok && (op == workload.Read || op == workload.Write) {
				return nil, d.fail("reference outside the address space")
			}
			think, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			th := unzigzag(think)
			if th < math.MinInt32 || th > math.MaxInt32 {
				return nil, d.fail("think cycles overflow")
			}
			refs[i] = workload.Ref{Addr: a, Op: op, Think: int32(th)}
		}
		t.Refs[n] = refs
	}
	return t, nil
}

// ReadFile decodes one trace file.
func ReadFile(path string) (*Recording, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeRecording(buf)
}
