// Binary codec for WALRecords: the payload format inside WAL frames and
// checkpoint files. The format is length-safe (every variable-size element is
// length-prefixed), position-independent (a payload decodes without external
// context) and exact for 64-bit integers — unlike the JSON stream codec,
// which decodes every number through float64 and silently corrupts int64
// magnitudes above 2^53, values here round-trip bit-for-bit.
//
// Value encoding is a one-byte tag followed by the payload. Integer widths
// are normalised the same way the entity layer normalises them on input
// (everything integral becomes int64; uint64 values above MaxInt64 keep
// their own tag), so a decoded record is SanitizeOps-clean by construction.
package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/clock"
	"repro/internal/entity"
)

// ErrCodec wraps encode failures for values outside the entity layer's
// supported set. Appends sanitize values before they reach a commit cycle,
// so hitting this means a record bypassed SanitizeOps.
type codecError struct{ msg string }

func (e *codecError) Error() string { return "storage: codec: " + e.msg }

// Value tags.
const (
	vNil byte = iota
	vFalse
	vTrue
	vInt    // varint int64
	vUint   // uvarint uint64 (only for values above MaxInt64)
	vFloat  // 8-byte little-endian IEEE 754
	vString // uvarint length + bytes
	vFields // uvarint count + (string key, value)*
	vMap    // same as vFields, decodes to map[string]interface{}
	vSlice  // uvarint count + value*
)

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func appendVarint(b []byte, v int64) []byte   { return binary.AppendVarint(b, v) }

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// appendValue encodes one operation value. Map iteration order is
// deterministic (sorted keys) so identical values produce identical bytes —
// checkpoints of equal stores are byte-comparable.
func appendValue(b []byte, v interface{}) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(b, vNil), nil
	case bool:
		if x {
			return append(b, vTrue), nil
		}
		return append(b, vFalse), nil
	case int:
		return appendVarint(append(b, vInt), int64(x)), nil
	case int8:
		return appendVarint(append(b, vInt), int64(x)), nil
	case int16:
		return appendVarint(append(b, vInt), int64(x)), nil
	case int32:
		return appendVarint(append(b, vInt), int64(x)), nil
	case int64:
		return appendVarint(append(b, vInt), x), nil
	case uint:
		return appendUint(b, uint64(x)), nil
	case uint8:
		return appendVarint(append(b, vInt), int64(x)), nil
	case uint16:
		return appendVarint(append(b, vInt), int64(x)), nil
	case uint32:
		return appendVarint(append(b, vInt), int64(x)), nil
	case uint64:
		return appendUint(b, x), nil
	case float32:
		return appendFloat(append(b, vFloat), float64(x)), nil
	case float64:
		return appendFloat(append(b, vFloat), x), nil
	case string:
		return appendString(append(b, vString), x), nil
	case entity.Fields:
		return appendFieldMap(append(b, vFields), x)
	case map[string]interface{}:
		return appendFieldMap(append(b, vMap), x)
	case []interface{}:
		b = appendUvarint(append(b, vSlice), uint64(len(x)))
		var err error
		for _, e := range x {
			if b, err = appendValue(b, e); err != nil {
				return nil, err
			}
		}
		return b, nil
	default:
		return nil, &codecError{msg: fmt.Sprintf("unsupported value type %T", v)}
	}
}

func appendUint(b []byte, x uint64) []byte {
	if x > math.MaxInt64 {
		return appendUvarint(append(b, vUint), x)
	}
	return appendVarint(append(b, vInt), int64(x))
}

func appendFieldMap[M ~map[string]interface{}](b []byte, m M) ([]byte, error) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = appendUvarint(b, uint64(len(keys)))
	var err error
	for _, k := range keys {
		b = appendString(b, k)
		if b, err = appendValue(b, m[k]); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// decoder walks an encoded payload. All reads are bounds-checked; a short or
// malformed payload yields an error, never a panic, because the payload may
// come from a corrupt file (the frame CRC catches media errors, not bugs in
// a foreign writer).
type decoder struct {
	b []byte
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		return 0, &codecError{msg: "truncated uvarint"}
	}
	d.b = d.b[n:]
	return v, nil
}

func (d *decoder) varint() (int64, error) {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		return 0, &codecError{msg: "truncated varint"}
	}
	d.b = d.b[n:]
	return v, nil
}

func (d *decoder) byte() (byte, error) {
	if len(d.b) == 0 {
		return 0, &codecError{msg: "truncated payload"}
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v, nil
}

func (d *decoder) string() (string, error) {
	b, err := d.bytes()
	return string(b), err
}

// bytes reads a length-prefixed string without copying it: the result
// aliases the payload.
func (d *decoder) bytes() ([]byte, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if uint64(len(d.b)) < n {
		return nil, &codecError{msg: "truncated string"}
	}
	b := d.b[:n:n]
	d.b = d.b[n:]
	return b, nil
}

func (d *decoder) float() (float64, error) {
	if len(d.b) < 8 {
		return 0, &codecError{msg: "truncated float"}
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v, nil
}

func (d *decoder) value() (interface{}, error) {
	tag, err := d.byte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case vNil:
		return nil, nil
	case vFalse:
		return false, nil
	case vTrue:
		return true, nil
	case vInt:
		return d.varint()
	case vUint:
		return d.uvarint()
	case vFloat:
		return d.float()
	case vString:
		return d.string()
	case vFields:
		f, err := d.fieldMap()
		return f, err
	case vMap:
		f, err := d.fieldMap()
		if f == nil {
			return (map[string]interface{})(nil), err
		}
		return map[string]interface{}(f), err
	case vSlice:
		n, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if uint64(len(d.b)) < n { // each element is at least one tag byte
			return nil, &codecError{msg: "truncated slice"}
		}
		out := make([]interface{}, n)
		for i := range out {
			if out[i], err = d.value(); err != nil {
				return nil, err
			}
		}
		return out, nil
	default:
		return nil, &codecError{msg: fmt.Sprintf("unknown value tag 0x%02x", tag)}
	}
}

func (d *decoder) fieldMap() (entity.Fields, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if uint64(len(d.b)) < n { // each entry is at least two bytes
		return nil, &codecError{msg: "truncated field map"}
	}
	out := make(entity.Fields, n)
	for i := uint64(0); i < n; i++ {
		k, err := d.string()
		if err != nil {
			return nil, err
		}
		if out[k], err = d.value(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Record flag bits.
const (
	flagTentative = 1 << 0
	flagObsolete  = 1 << 1
	flagChildRow  = 1 << 2 // op-level: a ChildRow map follows
)

// EncodeRecord appends the binary payload of one record to b. The payload
// carries no length or checksum — framing (wal.go) supplies both.
func EncodeRecord(b []byte, rec *WALRecord) ([]byte, error) {
	b = append(b, byte(rec.Kind))
	switch rec.Kind {
	case KindObsolete:
		b = appendString(b, rec.Key.Type)
		b = appendString(b, rec.Key.ID)
		return appendString(b, rec.TxnID), nil
	case KindCompact:
		return appendUvarint(b, rec.Horizon), nil
	case KindSummary:
		b = appendString(b, rec.Key.Type)
		b = appendString(b, rec.Key.ID)
		b, err := appendState(b, rec.Summary)
		if err != nil {
			return nil, err
		}
		// Horizon (the highest LSN the summary folds in) trails the state so
		// pre-tiered snapshots — which end at the state — still decode: the
		// decoder reads it only when bytes remain.
		return appendUvarint(b, rec.Horizon), nil
	}
	b = appendUvarint(b, rec.LSN)
	b = appendString(b, rec.Key.Type)
	b = appendString(b, rec.Key.ID)
	b = appendVarint(b, rec.Stamp.WallNanos)
	b = appendUvarint(b, uint64(rec.Stamp.Logical))
	b = appendString(b, string(rec.Stamp.Node))
	b = appendString(b, string(rec.Origin))
	b = appendString(b, rec.TxnID)
	var flags byte
	if rec.Tentative {
		flags |= flagTentative
	}
	if rec.Obsolete {
		flags |= flagObsolete
	}
	b = append(b, flags)
	b = appendUvarint(b, uint64(len(rec.Ops)))
	var err error
	for i := range rec.Ops {
		if b, err = appendOp(b, &rec.Ops[i]); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func appendOp(b []byte, op *entity.Op) ([]byte, error) {
	b = appendUvarint(b, uint64(op.Kind))
	b = appendString(b, op.Field)
	var err error
	if b, err = appendValue(b, op.Value); err != nil {
		return nil, err
	}
	b = appendFloat(b, op.Delta)
	b = appendString(b, op.Collection)
	b = appendString(b, op.ChildID)
	var flags byte
	if op.ChildRow != nil {
		flags |= flagChildRow
	}
	b = append(b, flags)
	if op.ChildRow != nil {
		if b, err = appendFieldMap(b, op.ChildRow); err != nil {
			return nil, err
		}
	}
	return appendString(b, op.Describe), nil
}

// appendState encodes an archived summary: flags, root fields, then every
// child collection with all rows (tombstones included — deletes are marks,
// not removals, and the summary preserves them).
func appendState(b []byte, st *entity.State) ([]byte, error) {
	var flags byte
	if st.Tentative {
		flags |= flagTentative
	}
	if st.Deleted {
		flags |= flagObsolete
	}
	b = append(b, flags)
	b, err := appendFieldMap(b, st.Fields)
	if err != nil {
		return nil, err
	}
	cols := st.Collections()
	b = appendUvarint(b, uint64(len(cols)))
	for _, name := range cols {
		b = appendString(b, name)
		rows := st.Children(name)
		b = appendUvarint(b, uint64(len(rows)))
		for _, row := range rows {
			b = appendString(b, row.ID)
			var rf byte
			if row.Deleted {
				rf |= flagObsolete
			}
			b = append(b, rf)
			if b, err = appendFieldMap(b, row.Fields); err != nil {
				return nil, err
			}
		}
	}
	return b, nil
}

// DecodeRecord parses one payload produced by EncodeRecord.
func DecodeRecord(payload []byte) (WALRecord, error) {
	d := &decoder{b: payload}
	kind, err := d.byte()
	if err != nil {
		return WALRecord{}, err
	}
	rec := WALRecord{Kind: RecordKind(kind)}
	switch rec.Kind {
	case KindObsolete:
		if rec.Key.Type, err = d.string(); err != nil {
			return rec, err
		}
		if rec.Key.ID, err = d.string(); err != nil {
			return rec, err
		}
		rec.TxnID, err = d.string()
		return rec, err
	case KindCompact:
		rec.Horizon, err = d.uvarint()
		return rec, err
	case KindSummary:
		if rec.Key.Type, err = d.string(); err != nil {
			return rec, err
		}
		if rec.Key.ID, err = d.string(); err != nil {
			return rec, err
		}
		if rec.Summary, err = d.state(rec.Key); err != nil {
			return rec, err
		}
		// Trailing horizon, absent in pre-tiered snapshots.
		if len(d.b) > 0 {
			rec.Horizon, err = d.uvarint()
		}
		return rec, err
	case KindAppend:
	default:
		return rec, &codecError{msg: fmt.Sprintf("unknown record kind 0x%02x", kind)}
	}
	if rec.LSN, err = d.uvarint(); err != nil {
		return rec, err
	}
	if rec.Key.Type, err = d.string(); err != nil {
		return rec, err
	}
	if rec.Key.ID, err = d.string(); err != nil {
		return rec, err
	}
	if rec.Stamp.WallNanos, err = d.varint(); err != nil {
		return rec, err
	}
	logical, err := d.uvarint()
	if err != nil {
		return rec, err
	}
	rec.Stamp.Logical = uint32(logical)
	node, err := d.string()
	if err != nil {
		return rec, err
	}
	rec.Stamp.Node = clock.NodeID(node)
	origin, err := d.string()
	if err != nil {
		return rec, err
	}
	rec.Origin = clock.NodeID(origin)
	if rec.TxnID, err = d.string(); err != nil {
		return rec, err
	}
	flags, err := d.byte()
	if err != nil {
		return rec, err
	}
	rec.Tentative = flags&flagTentative != 0
	rec.Obsolete = flags&flagObsolete != 0
	nOps, err := d.uvarint()
	if err != nil {
		return rec, err
	}
	if uint64(len(d.b)) < nOps {
		return rec, &codecError{msg: "truncated op list"}
	}
	if nOps > 0 {
		rec.Ops = make([]entity.Op, nOps)
		for i := range rec.Ops {
			if err := d.op(&rec.Ops[i]); err != nil {
				return rec, err
			}
		}
	}
	return rec, nil
}

// AppendHeader is what the prefix of an encoded append record says without
// its operations being decoded: enough for an exactly-once lookup, a flush's
// settled horizon and an in-place obsolete mark.
type AppendHeader struct {
	// TxnID aliases the payload: compare it, or copy it to keep it.
	TxnID     []byte
	Tentative bool
	Obsolete  bool
	flagsAt   int
}

// ReadAppendHeader parses a KindAppend payload up to and including its flag
// byte.
func ReadAppendHeader(payload []byte) (AppendHeader, error) {
	d := &decoder{b: payload}
	kind, err := d.byte()
	if err != nil {
		return AppendHeader{}, err
	}
	if RecordKind(kind) != KindAppend {
		return AppendHeader{}, &codecError{msg: fmt.Sprintf("record kind 0x%02x is not an append", kind)}
	}
	if _, err := d.uvarint(); err != nil { // LSN
		return AppendHeader{}, err
	}
	for range 2 { // key type and id
		if _, err := d.bytes(); err != nil {
			return AppendHeader{}, err
		}
	}
	if _, err := d.varint(); err != nil { // stamp wall clock
		return AppendHeader{}, err
	}
	if _, err := d.uvarint(); err != nil { // stamp logical counter
		return AppendHeader{}, err
	}
	for range 2 { // stamp node and origin
		if _, err := d.bytes(); err != nil {
			return AppendHeader{}, err
		}
	}
	var h AppendHeader
	if h.TxnID, err = d.bytes(); err != nil {
		return AppendHeader{}, err
	}
	flags, err := d.byte()
	if err != nil {
		return AppendHeader{}, err
	}
	h.Tentative = flags&flagTentative != 0
	h.Obsolete = flags&flagObsolete != 0
	h.flagsAt = len(payload) - len(d.b) - 1
	return h, nil
}

// MarkObsolete sets the obsolete flag of an encoded append record in place:
// the payload then decodes as the record with Obsolete set, exactly as if it
// had been encoded that way.
func MarkObsolete(payload []byte) error {
	h, err := ReadAppendHeader(payload)
	if err != nil {
		return err
	}
	payload[h.flagsAt] |= flagObsolete
	return nil
}

func (d *decoder) op(op *entity.Op) error {
	kind, err := d.uvarint()
	if err != nil {
		return err
	}
	op.Kind = entity.OpKind(kind)
	if op.Field, err = d.string(); err != nil {
		return err
	}
	if op.Value, err = d.value(); err != nil {
		return err
	}
	if op.Delta, err = d.float(); err != nil {
		return err
	}
	if op.Collection, err = d.string(); err != nil {
		return err
	}
	if op.ChildID, err = d.string(); err != nil {
		return err
	}
	flags, err := d.byte()
	if err != nil {
		return err
	}
	if flags&flagChildRow != 0 {
		if op.ChildRow, err = d.fieldMap(); err != nil {
			return err
		}
	}
	op.Describe, err = d.string()
	return err
}

func (d *decoder) state(key entity.Key) (*entity.State, error) {
	st := entity.NewState(key)
	flags, err := d.byte()
	if err != nil {
		return nil, err
	}
	st.Tentative = flags&flagTentative != 0
	st.Deleted = flags&flagObsolete != 0
	if st.Fields, err = d.fieldMap(); err != nil {
		return nil, err
	}
	if st.Fields == nil {
		st.Fields = entity.Fields{}
	}
	nCols, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if uint64(len(d.b)) < nCols {
		return nil, &codecError{msg: "truncated collection list"}
	}
	for i := uint64(0); i < nCols; i++ {
		name, err := d.string()
		if err != nil {
			return nil, err
		}
		nRows, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if uint64(len(d.b)) < nRows {
			return nil, &codecError{msg: "truncated row list"}
		}
		for r := uint64(0); r < nRows; r++ {
			id, err := d.string()
			if err != nil {
				return nil, err
			}
			rf, err := d.byte()
			if err != nil {
				return nil, err
			}
			fields, err := d.fieldMap()
			if err != nil {
				return nil, err
			}
			if fields == nil {
				fields = entity.Fields{}
			}
			st.RestoreChild(name, entity.Child{ID: id, Fields: fields, Deleted: rf&flagObsolete != 0})
		}
	}
	return st.Freeze(), nil
}
