package storage

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/clock"
	"repro/internal/entity"
)

func roundTrip(t *testing.T, rec WALRecord) WALRecord {
	t.Helper()
	b, err := EncodeRecord(nil, &rec)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	out, err := DecodeRecord(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return out
}

func TestCodecRoundTripAppend(t *testing.T) {
	rec := WALRecord{
		LSN: 42,
		Key: entity.Key{Type: "Order", ID: "O-1"},
		Ops: []entity.Op{
			entity.Set("status", "OPEN").Described("open the order"),
			entity.Delta("total", 99.25),
			entity.InsertChild("lineitems", "L1", entity.Fields{
				"qty":    int64(3),
				"price":  12.5,
				"flag":   true,
				"nested": entity.Fields{"deep": int64(-7)},
				"list":   []interface{}{int64(1), "two", 3.0, nil},
			}),
			entity.DeleteChild("lineitems", "L0"),
			entity.Delete(),
		},
		Stamp:     clock.Timestamp{WallNanos: 123456789, Logical: 7, Node: "n1"},
		Origin:    "n1",
		TxnID:     "txn-9",
		Tentative: true,
		Obsolete:  true,
	}
	got := roundTrip(t, rec)
	if !reflect.DeepEqual(rec, got) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", rec, got)
	}
}

// TestCodecInt64Exact is the regression test for the JSON round-trip bug:
// int64 magnitudes above 2^53 must survive the binary codec bit-for-bit.
func TestCodecInt64Exact(t *testing.T) {
	big := int64(1)<<62 + 12345 // not representable in float64
	vals := []interface{}{
		big, -big, int64(math.MaxInt64), int64(math.MinInt64),
		uint64(math.MaxUint64), // above MaxInt64: keeps its uint64 identity
	}
	for _, v := range vals {
		rec := WALRecord{
			LSN: 1, Key: entity.Key{Type: "T", ID: "i"},
			Ops: []entity.Op{entity.Set("v", v)},
		}
		got := roundTrip(t, rec)
		if out := got.Ops[0].Value; out != v {
			t.Errorf("value %v (%T) decoded as %v (%T)", v, v, out, out)
		}
	}
}

// TestCodecNormalisesSmallWidths pins the documented width normalisation:
// narrow integer kinds decode as int64 (the width the entity layer uses),
// float32 as float64.
func TestCodecNormalisesSmallWidths(t *testing.T) {
	rec := WALRecord{
		LSN: 1, Key: entity.Key{Type: "T", ID: "i"},
		Ops: []entity.Op{
			entity.Set("a", int(7)),
			entity.Set("b", int32(-9)),
			entity.Set("c", uint16(65535)),
			entity.Set("d", float32(1.5)),
			entity.Set("e", uint64(10)), // fits int64: normalised
		},
	}
	got := roundTrip(t, rec)
	want := []interface{}{int64(7), int64(-9), int64(65535), float64(1.5), int64(10)}
	for i, w := range want {
		if got.Ops[i].Value != w {
			t.Errorf("op %d: got %v (%T), want %v (%T)", i, got.Ops[i].Value, got.Ops[i].Value, w, w)
		}
	}
}

func TestCodecMarks(t *testing.T) {
	obs := roundTrip(t, WALRecord{Kind: KindObsolete, Key: entity.Key{Type: "A", ID: "x"}, TxnID: "t1"})
	if obs.Kind != KindObsolete || obs.Key.ID != "x" || obs.TxnID != "t1" {
		t.Fatalf("obsolete mark mangled: %+v", obs)
	}
	cmp := roundTrip(t, WALRecord{Kind: KindCompact, Horizon: 99})
	if cmp.Kind != KindCompact || cmp.Horizon != 99 {
		t.Fatalf("compact mark mangled: %+v", cmp)
	}
}

func TestCodecSummaryState(t *testing.T) {
	st := entity.NewState(entity.Key{Type: "Order", ID: "O-7"})
	st.Fields["status"] = "SHIPPED"
	st.Fields["total"] = 120.5
	st.Fields["count"] = int64(1) << 60
	st.Tentative = true
	st.RestoreChild("lineitems", entity.Child{ID: "L1", Fields: entity.Fields{"qty": int64(2)}})
	st.RestoreChild("lineitems", entity.Child{ID: "L2", Fields: entity.Fields{"qty": int64(5)}, Deleted: true})
	st.RestoreChild("notes", entity.Child{ID: "N1", Fields: entity.Fields{"text": "rush"}})
	st.Freeze()

	got := roundTrip(t, WALRecord{Kind: KindSummary, Key: st.Key, Summary: st})
	out := got.Summary
	if out == nil || !out.Frozen() {
		t.Fatalf("summary not decoded frozen: %+v", got)
	}
	if !reflect.DeepEqual(out.Fields, st.Fields) || out.Tentative != st.Tentative || out.Deleted != st.Deleted {
		t.Fatalf("summary root mismatch:\n in: %+v\nout: %+v", st.Fields, out.Fields)
	}
	if !reflect.DeepEqual(out.Collections(), st.Collections()) {
		t.Fatalf("collections mismatch: %v vs %v", out.Collections(), st.Collections())
	}
	for _, col := range st.Collections() {
		if !reflect.DeepEqual(out.Children(col), st.Children(col)) {
			t.Fatalf("collection %s mismatch:\n in: %+v\nout: %+v", col, st.Children(col), out.Children(col))
		}
	}
}

func TestCodecRejectsUnsupportedValue(t *testing.T) {
	rec := WALRecord{
		LSN: 1, Key: entity.Key{Type: "T", ID: "i"},
		Ops: []entity.Op{{Kind: entity.OpSet, Field: "bad", Value: struct{ X int }{1}}},
	}
	if _, err := EncodeRecord(nil, &rec); err == nil {
		t.Fatal("expected encode error for unsupported value type")
	}
}

func TestCodecTruncatedPayload(t *testing.T) {
	rec := WALRecord{
		LSN: 5, Key: entity.Key{Type: "T", ID: "i"},
		Ops: []entity.Op{entity.Set("f", "value")},
	}
	b, err := EncodeRecord(nil, &rec)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(b); cut++ {
		if _, err := DecodeRecord(b[:cut]); err == nil {
			t.Fatalf("decode of %d/%d bytes succeeded", cut, len(b))
		}
	}
}

// TestCodecAppendHeader pins what the in-memory log reads without decoding
// ops: the header's txn id and flags match the record, MarkObsolete sets the
// flag in place and changes nothing else, a mark or a cut short header is an
// error.
func TestCodecAppendHeader(t *testing.T) {
	for _, rec := range []WALRecord{
		{LSN: 1 << 40, Key: entity.Key{Type: "Order", ID: "O-1"}, Ops: []entity.Op{entity.Delta("total", 2)},
			Stamp: clock.Timestamp{WallNanos: -5, Logical: 3, Node: "n1"}, Origin: "n2", TxnID: "n1-txn-17", Tentative: true},
		{LSN: 2, Key: entity.Key{Type: "A", ID: "x"}, Ops: []entity.Op{entity.Set("s", "v")}},
	} {
		b, err := EncodeRecord(nil, &rec)
		if err != nil {
			t.Fatal(err)
		}
		h, err := ReadAppendHeader(b)
		if err != nil || string(h.TxnID) != rec.TxnID || h.Tentative != rec.Tentative || h.Obsolete {
			t.Fatalf("header %+v (%v) of %+v", h, err, rec)
		}
		for cut := 0; cut <= h.flagsAt; cut++ {
			if _, err := ReadAppendHeader(b[:cut]); err == nil {
				t.Fatalf("header of %d/%d bytes read", cut, len(b))
			}
		}
		if err := MarkObsolete(b); err != nil {
			t.Fatal(err)
		}
		if h, _ := ReadAppendHeader(b); !h.Obsolete || h.Tentative != rec.Tentative {
			t.Fatalf("flags after MarkObsolete: %+v", h)
		}
		got, err := DecodeRecord(b)
		rec.Obsolete = true
		if err != nil || !reflect.DeepEqual(got, rec) {
			t.Fatalf("after MarkObsolete decodes as %+v (%v), want %+v", got, err, rec)
		}
	}
	mark, _ := EncodeRecord(nil, &WALRecord{Kind: KindObsolete, Key: entity.Key{Type: "A", ID: "x"}, TxnID: "t"})
	if _, err := ReadAppendHeader(mark); err == nil {
		t.Fatal("an obsolete mark read as an append header")
	}
	if err := MarkObsolete(mark); err == nil {
		t.Fatal("MarkObsolete changed a mark")
	}
}
