package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/clock"
	"repro/internal/entity"
)

// The WAL's tests call the frame helpers by these names.
const frameHeader = FrameHeader

var appendFrame = AppendFrame

// streamRecords is one record of every kind, with every value shape the
// codec has a tag for.
func streamRecords() []WALRecord {
	st := entity.NewState(entity.Key{Type: "Account", ID: "A-1"})
	st.Fields["balance"] = 2.0
	st.Fields["meta"] = map[string]interface{}{"$float": int64(3)}
	st.Fields["row"] = entity.Fields{"n": uint64(math.MaxUint64)}
	st.RestoreChild("holds", entity.Child{ID: "h1", Fields: entity.Fields{"amt": 1.5}, Deleted: true})
	return []WALRecord{
		{
			LSN: 7, Key: entity.Key{Type: "Order", ID: "O-1"},
			Ops: []entity.Op{
				entity.Set("note", 2.0).Described("set"),
				entity.Set("big", uint64(math.MaxUint64)),
				entity.InsertChild("lines", "L1", entity.Fields{"list": []interface{}{int64(1), "two", nil, true}}),
			},
			Stamp: clock.Timestamp{WallNanos: 99, Logical: 3, Node: "n1"}, Origin: "n1", TxnID: "t-1", Tentative: true,
		},
		{Kind: KindObsolete, Key: entity.Key{Type: "Order", ID: "O-1"}, TxnID: "t-1"},
		{Kind: KindCompact, Horizon: 7},
		{Kind: KindSummary, Key: st.Key, Summary: st.Freeze(), Horizon: 6},
	}
}

// encodeStream writes a header, the records and the trailer.
func encodeStream(t testing.TB, recs []WALRecord) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	sw.Control('S', []byte("primary"), 2)
	for i := range recs {
		if err := sw.Record(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeStream reads what encodeStream writes for n records.
func decodeStream(data []byte, n int) ([]WALRecord, error) {
	sr := NewStreamReader(bytes.NewReader(data))
	var unit uint64
	from, err := sr.Control('S', &unit)
	if err != nil {
		return nil, err
	}
	if string(from) != "primary" || unit != 2 {
		return nil, errors.New("header changed")
	}
	var recs []WALRecord
	for range n {
		rec, err := sr.Record()
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	return recs, sr.Close()
}

func TestStreamRoundTrip(t *testing.T) {
	want := streamRecords()
	got, err := decodeStream(encodeStream(t, want), len(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %#v\nwant %#v", got, want)
	}
}

// TestStreamRefusesEveryFlippedByte: one flipped bit anywhere — header,
// length, CRC or payload — is refused, never read as a different stream.
func TestStreamRefusesEveryFlippedByte(t *testing.T) {
	recs := streamRecords()
	data := encodeStream(t, recs)
	for i := range data {
		for _, bit := range []byte{0x01, 0x80} {
			bad := bytes.Clone(data)
			bad[i] ^= bit
			if _, err := decodeStream(bad, len(recs)); err == nil {
				t.Fatalf("byte %d ^ %#x accepted", i, bit)
			}
		}
	}
	for cut := range data {
		if _, err := decodeStream(data[:cut], len(recs)); err == nil {
			t.Fatalf("stream cut at %d of %d accepted", cut, len(data))
		}
	}
}

// TestStreamRefusesForeignEncodings: a frame whose CRC is right but whose
// payload is not what this build writes for the record it decodes to — a
// padded varint, a trailing byte — is refused.
func TestStreamRefusesForeignEncodings(t *testing.T) {
	rec := WALRecord{LSN: 1, Key: entity.Key{Type: "A", ID: "x"}, Ops: []entity.Op{entity.Set("v", int64(1))}}
	payload, err := EncodeRecord(nil, &rec)
	if err != nil {
		t.Fatal(err)
	}
	padded := append([]byte{payload[0], payload[1] | 0x80, 0x00}, payload[2:]...) // LSN 1 as two bytes
	trailing := append(bytes.Clone(payload), 0)
	for name, p := range map[string][]byte{"padded varint": padded, "trailing byte": trailing} {
		frame := sealFrame(append(make([]byte, FrameHeader), p...), 0)
		if _, err := NewStreamReader(bytes.NewReader(frame)).Record(); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	if _, err := ParseControl([]byte{'S', 0x81, 0x00}, 'S', new(uint64)); err == nil {
		t.Fatal("padded control uvarint accepted")
	}
}

// streamAllocSlack covers what a StreamReader allocates whatever its input
// (its read buffer, the first chunk of a frame) with room for whatever the
// runtime allocates meanwhile; a reader that trusted a forged length would
// reserve up to MaxFrame, 256 MiB.
const streamAllocSlack = 1 << 20

// FuzzRecordStream: arbitrary bytes through the stream reader behind the
// replication ship body, catch-up replies, backups and Save/Load end in
// records or an error, never a panic; reading them allocates in proportion
// to the bytes received, however long a frame claims to be; and a stream
// that is accepted re-encodes to exactly its own bytes. Each input runs
// twice, as given and with every frame's CRC made to match, so mutations
// also reach the payload decoder rather than stopping at the checksum.
func FuzzRecordStream(f *testing.F) {
	data := encodeStream(f, streamRecords())
	f.Add(data)
	f.Add(data[:len(data)-3])
	f.Add([]byte{0xff, 0xff, 0xff, 0x0f, 0, 0, 0, 0}) // length just under MaxFrame
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4}) // length past MaxFrame
	f.Add([]byte("{\"version\":1,\"units\":2}\n"))    // a JSON backup
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkStream(t, data)
		checkStream(t, withCRCs(data))
	})
}

func checkStream(t *testing.T, data []byte) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	sr := NewStreamReader(bytes.NewReader(data))
	for {
		if _, err := sr.Next(); err != nil {
			break
		}
	}
	runtime.ReadMemStats(&ms)
	if grew := ms.TotalAlloc - before; grew > streamAllocSlack+4*uint64(len(data)) {
		t.Fatalf("reading %d bytes allocated %d", len(data), grew)
	}

	sr = NewStreamReader(bytes.NewReader(data))
	var out []byte
	for {
		p, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return
		}
		if p[0] >= 'A' {
			var v uint64
			tail, err := ParseControl(p, p[0], &v)
			if err != nil {
				return
			}
			out = AppendControl(out, p[0], tail, v)
			continue
		}
		rec, err := sr.exact(p)
		if err != nil {
			return
		}
		if out, err = AppendFrame(out, &rec); err != nil {
			t.Fatalf("accepted record does not encode: %v", err)
		}
	}
	if !bytes.Equal(out, data) {
		t.Fatalf("accepted stream re-encodes differently:\n in %x\nout %x", data, out)
	}
}

// withCRCs returns data with the CRC of every whole frame set to match its
// payload.
func withCRCs(data []byte) []byte {
	out := bytes.Clone(data)
	for off := 0; off+FrameHeader <= len(out); {
		n := int(binary.LittleEndian.Uint32(out[off:]))
		if n > len(out)-off-FrameHeader {
			break
		}
		binary.LittleEndian.PutUint32(out[off+4:], crc32.ChecksumIEEE(out[off+FrameHeader:off+FrameHeader+n]))
		off += FrameHeader + n
	}
	return out
}
