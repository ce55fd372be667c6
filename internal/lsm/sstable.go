// Immutable sorted-table files (SSTables).
//
// Layout of sst-%010d.sst:
//
//	8-byte magic "SOUPSST\x01"
//	data block:  CRC frames (uint32 len | uint32 CRC32 | payload), payloads
//	             are storage.EncodeRecord bytes, grouped per key — the key's
//	             settled summary first (KindSummary, Horizon set), then its
//	             detail records (KindAppend) in LSN order
//	index block: one CRC frame whose payload is the per-key index — for each
//	             key (ascending): type, id, flags, horizon, dataOff, dataLen,
//	             detailCount — all length-prefixed / uvarint
//	footer:      uint64 indexOff | uint64 indexLen | uint64 keyCount |
//	             uint32 CRC32 of the previous 24 bytes | 8-byte magic
//	             "SSTFOOT\x01"   (fixed 44 bytes, little-endian)
//
// A table is written to a .tmp name, fsynced, renamed and the directory
// synced — a crash leaves either a complete table or an ignorable temp file.
// After open only a sparse in-memory index survives (every 16th key plus its
// byte offset into the index block) alongside the bloom sidecar; lookups
// re-read one index slice and one data frame, recovery re-reads the index
// block and the detail frames but never the summary payloads of cold keys.
// Frames are storage's: the table writes them with storage's encoder and
// header, and reads data frames through storage.FrameReader over a section
// of the file — one entry for a lookup (one read of exactly its bytes), the
// data block for recovery and compaction (one large sequential read at a
// time) — and the index frame whole, in one read, through storage.CheckFrame.
package lsm

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"repro/internal/entity"
	"repro/internal/storage"
)

var (
	sstMagic    = []byte("SOUPSST\x01")
	sstFootMag  = []byte("SSTFOOT\x01")
	errNotFound = errors.New("lsm: key not in table")
)

const (
	footerSize = 8 + 8 + 8 + 4 + 8
	// sparseEvery is the in-memory index granularity: one retained entry per
	// this many index-block entries.
	sparseEvery = 16
	// entryHasSummary flags an index entry whose first data frame is the
	// key's settled summary; entries without it hold only detail records
	// (a key whose every record is still a live tentative promise).
	entryHasSummary = 1
)

// compositeKey is the sort and comparison form of an entity key: type and id
// joined by a NUL, which sorts below every printable byte so distinct
// (type, id) pairs order consistently and never collide.
func compositeKey(k entity.Key) string { return k.Type + "\x00" + k.ID }

// indexEntry is one parsed index-block entry.
type indexEntry struct {
	key         entity.Key
	flags       uint64
	horizon     uint64
	dataOff     int64
	dataLen     int64
	detailCount uint64
}

func appendIndexEntry(b []byte, e *rawEntry) []byte {
	b = binary.AppendUvarint(b, uint64(len(e.typ)))
	b = append(b, e.typ...)
	b = binary.AppendUvarint(b, uint64(len(e.id)))
	b = append(b, e.id...)
	b = binary.AppendUvarint(b, e.flags)
	b = binary.AppendUvarint(b, e.horizon)
	b = binary.AppendUvarint(b, e.dataOff)
	b = binary.AppendUvarint(b, e.dataLen)
	b = binary.AppendUvarint(b, e.detailCount)
	return b
}

// indexCursor walks index-block entries sequentially.
type indexCursor struct {
	b   []byte
	off int // byte offset of the next entry within the block
}

// rawEntry is an index entry as it lies in the block, its key still bytes of
// the block.
type rawEntry struct {
	typ, id                                       []byte
	flags, horizon, dataOff, dataLen, detailCount uint64
}

// nextRaw parses the next entry without copying anything out of the block.
func (c *indexCursor) nextRaw(r *rawEntry) (bool, error) {
	if len(c.b) == 0 {
		return false, nil
	}
	start := len(c.b)
	str := func() ([]byte, error) {
		n, w := binary.Uvarint(c.b)
		if w <= 0 || uint64(len(c.b)-w) < n {
			return nil, errors.New("lsm: corrupt index entry")
		}
		b := c.b[w : w+int(n)]
		c.b = c.b[w+int(n):]
		return b, nil
	}
	var err error
	if r.typ, err = str(); err != nil {
		return false, err
	}
	if r.id, err = str(); err != nil {
		return false, err
	}
	for _, dst := range [...]*uint64{&r.flags, &r.horizon, &r.dataOff, &r.dataLen, &r.detailCount} {
		v, w := binary.Uvarint(c.b)
		if w <= 0 {
			return false, errors.New("lsm: corrupt index entry")
		}
		*dst, c.b = v, c.b[w:]
	}
	c.off += start - len(c.b)
	return true, nil
}

// next parses the next entry into e. It keeps the strings e held from the
// previous entry when the bytes match: a run of keys shares its type, so only
// the id allocates.
func (c *indexCursor) next(e *indexEntry) (bool, error) {
	var r rawEntry
	if ok, err := c.nextRaw(&r); !ok || err != nil {
		return ok, err
	}
	if string(r.typ) != e.key.Type {
		e.key.Type = string(r.typ)
	}
	if string(r.id) != e.key.ID {
		e.key.ID = string(r.id)
	}
	e.flags, e.horizon, e.detailCount = r.flags, r.horizon, r.detailCount
	e.dataOff, e.dataLen = int64(r.dataOff), int64(r.dataLen)
	return true, nil
}

var nul = []byte{0}

// appendComposite appends the composite key typ+"\x00"+id to b.
func appendComposite[S string | []byte](b []byte, typ, id S) []byte {
	b = append(b, typ...)
	b = append(b, 0)
	return append(b, id...)
}

// cmpComposite compares the composite key typ+"\x00"+id with ck as comparing
// the two strings would, without building the first.
func cmpComposite(typ, id []byte, ck string) int {
	for _, part := range [...][]byte{typ, nul, id} {
		n := min(len(part), len(ck))
		for i := 0; i < n; i++ {
			if part[i] != ck[i] {
				if part[i] < ck[i] {
					return -1
				}
				return 1
			}
		}
		if n < len(part) {
			return 1
		}
		ck = ck[n:]
	}
	if len(ck) > 0 {
		return -1
	}
	return 0
}

// tableWriter streams key-grouped records into a new table file. Records
// must arrive sorted by composite key, each key's summary (if any) first and
// its details in LSN order — the flush capture and the compaction merge both
// produce exactly that order. While it writes it also accumulates what an
// open table keeps in memory (sparse index, bloom hashes), so finish can hand
// back a table that needs nothing re-read from the file. Per key it keeps
// only a hash and the index bytes: the key itself lives in a buffer reused
// from one key to the next.
type tableWriter struct {
	*writerBufs
	dir, name string
	tmp       string
	f         *os.File
	off       int64 // bytes written so far (file offset)
	sparse    []sparseSlot
	cur       rawEntry // the open key's index entry; typ and id alias curKey
	minKey    string
	watermark uint64
}

// writerBufs are the buffers a table writer fills and drops when the table
// is done, handed from one writer to the next (Store.newWriter) so a flush
// grows none of them.
type writerBufs struct {
	bw      *bufio.Writer
	scratch []byte
	index   []byte
	hashes  []uint64 // keyHash of every key written, for the bloom sidecar
	curKey  []byte   // composite of the open key; empty before the first record
	ck      []byte   // scratch composite of an incoming record's key
}

// keepBufs bounds the buffers a store keeps for its next flush: a writer
// whose buffers grew past it (a first flush of a large store) lets them go.
const keepBufs = 1 << 20

// reusable reports whether b is small enough to keep for the next writer.
func (b *writerBufs) reusable() bool {
	return cap(b.index) <= keepBufs && cap(b.hashes) <= keepBufs/8 && cap(b.scratch) <= keepBufs
}

// newTableWriter starts the table name in dir on bufs, an earlier writer's
// buffers, or fresh ones when bufs is nil.
func newTableWriter(dir, name string, bufs *writerBufs) (*tableWriter, error) {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("lsm: %w", err)
	}
	if bufs == nil {
		bufs = &writerBufs{bw: bufio.NewWriterSize(f, 1<<16)}
	} else {
		bufs.bw.Reset(f)
		bufs.index, bufs.hashes, bufs.curKey = bufs.index[:0], bufs.hashes[:0], bufs.curKey[:0]
	}
	w := &tableWriter{writerBufs: bufs, dir: dir, name: name, tmp: tmp, f: f}
	w.write(sstMagic) // into bw's empty buffer, which holds it
	return w, nil
}

// reserve pre-sizes what the writer accumulates for a table of up to keys
// keys whose index block takes up to indexBytes (estimates will do), so a
// large table grows none of it.
func (w *tableWriter) reserve(keys, indexBytes int) {
	w.index = slices.Grow(w.index, indexBytes)
	w.hashes = slices.Grow(w.hashes, keys)
	w.sparse = slices.Grow(w.sparse, keys/sparseEvery+1)
}

func (w *tableWriter) write(frame []byte) error {
	if _, err := w.bw.Write(frame); err != nil {
		return fmt.Errorf("lsm: %w", err)
	}
	w.off += int64(len(frame))
	return nil
}

// add frames rec and appends it.
func (w *tableWriter) add(rec *storage.WALRecord) error {
	pos := rec.LSN
	if rec.Kind == storage.KindSummary {
		pos = rec.Horizon
	}
	var err error
	if w.scratch, err = storage.AppendFrame(w.scratch[:0], rec); err != nil {
		return err
	}
	w.ck = appendComposite(w.ck[:0], rec.Key.Type, rec.Key.ID)
	return w.addFrame(w.ck, len(rec.Key.Type), rec.Kind, pos, w.scratch)
}

// addFrame appends one framed record of the key whose composite form is ck
// (its type the first typLen bytes): a frame add just encoded, or one a merge
// input holds, copied as it is. kind and pos — a summary's horizon, a
// detail's LSN — are what the index and the watermark need of it. A new key
// closes the previous key's index entry and must sort after it; a summary
// must be its key's first record.
func (w *tableWriter) addFrame(ck []byte, typLen int, kind storage.RecordKind, pos uint64, frame []byte) error {
	if !bytes.Equal(ck, w.curKey) {
		if len(w.curKey) > 0 && bytes.Compare(ck, w.curKey) < 0 {
			return fmt.Errorf("lsm: records out of key order (%q after %q)", ck, w.curKey)
		}
		w.flushKey()
		if len(w.curKey) == 0 {
			w.minKey = string(ck)
		}
		w.curKey = append(w.curKey[:0], ck...)
		w.cur = rawEntry{typ: w.curKey[:typLen], id: w.curKey[typLen+1:], dataOff: uint64(w.off)}
		w.hashes = append(w.hashes, keyHash(ck))
	}
	switch kind {
	case storage.KindSummary:
		if w.cur.flags&entryHasSummary != 0 || w.cur.detailCount > 0 {
			return fmt.Errorf("lsm: summary for %q must be the key's first record", w.curKey)
		}
		w.cur.flags |= entryHasSummary
		w.cur.horizon = pos
	case storage.KindAppend:
		w.cur.detailCount++
	default:
		return fmt.Errorf("lsm: record kind %d does not belong in a table", kind)
	}
	w.watermark = max(w.watermark, pos)
	return w.write(frame)
}

func (w *tableWriter) flushKey() {
	if len(w.curKey) == 0 {
		return
	}
	w.cur.dataLen = uint64(w.off) - w.cur.dataOff
	if (len(w.hashes)-1)%sparseEvery == 0 {
		w.sparse = append(w.sparse, sparseSlot{key: string(w.curKey), off: len(w.index)})
	}
	w.index = appendIndexEntry(w.index, &w.cur)
}

// finish writes the index block, footer and bloom sidecar, fsyncs and
// renames the table into place, and returns the table ready to open: sparse
// index and bloom filter come from what the writer saw, not from re-reading
// the index block it just wrote. beforeRename, when non-nil, runs after the
// data is durable in the temp file but before the rename — the crash-test
// hook point for a flush that died mid-install.
func (w *tableWriter) finish(beforeRename func() error) (*table, error) {
	w.flushKey()
	indexOff := w.off
	hdr := storage.AppendFrameHeader(w.scratch[:0], w.index)
	indexLen := int64(len(hdr) + len(w.index))
	footer := make([]byte, 0, footerSize)
	footer = binary.LittleEndian.AppendUint64(footer, uint64(indexOff))
	footer = binary.LittleEndian.AppendUint64(footer, uint64(indexLen))
	footer = binary.LittleEndian.AppendUint64(footer, uint64(len(w.hashes)))
	footer = binary.LittleEndian.AppendUint32(footer, crc32.ChecksumIEEE(footer))
	footer = append(footer, sstFootMag...)
	for _, b := range [][]byte{hdr, w.index, footer} {
		w.write(b) // a write error sticks in bw: Flush returns it
	}
	err := w.bw.Flush()
	if err == nil {
		err = w.f.Sync()
	}
	if err == nil {
		err, w.f = w.f.Close(), nil
	}
	if err != nil {
		w.abort()
		return nil, fmt.Errorf("lsm: %w", err)
	}
	// The bloom sidecar is advisory (rebuilt if missing), so it needs no
	// fsync ceremony — but write it before the rename so a completed table
	// normally has its filter ready.
	bl := newBloom(len(w.hashes))
	for _, h := range w.hashes {
		bl.add(h)
	}
	blmPath := filepath.Join(w.dir, bloomName(w.name))
	os.WriteFile(blmPath, bl.marshal(), 0o644)
	if beforeRename != nil {
		if err := beforeRename(); err != nil {
			os.Remove(w.tmp)
			os.Remove(blmPath)
			return nil, err
		}
	}
	if err := os.Rename(w.tmp, filepath.Join(w.dir, w.name)); err != nil {
		os.Remove(w.tmp)
		return nil, fmt.Errorf("lsm: %w", err)
	}
	if err := storage.SyncDir(w.dir); err != nil {
		return nil, err
	}
	return &table{
		meta: tableMeta{
			Name:      w.name,
			MinKey:    w.minKey,
			MaxKey:    string(w.curKey),
			Keys:      uint64(len(w.hashes)),
			Bytes:     w.off,
			Watermark: w.watermark,
		},
		indexOff: indexOff,
		indexLen: indexLen,
		count:    uint64(len(w.hashes)),
		sparse:   w.sparse,
		bloom:    bl,
	}, nil
}

func (w *tableWriter) abort() {
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
	os.Remove(w.tmp)
}

// bloomName maps sst-0000000007.sst to sst-0000000007.blm.
func bloomName(table string) string { return strings.TrimSuffix(table, ".sst") + ".blm" }

// table is one open, immutable SSTable: a read-only file handle, the sparse
// index and the bloom filter.
type table struct {
	meta     tableMeta
	f        *os.File
	indexOff int64 // file offset of the index frame
	indexLen int64 // bytes of the index frame (header + payload)
	count    uint64
	sparse   []sparseSlot
	bloom    *bloomFilter
}

// sparseSlot anchors a run of sparseEvery index entries: the composite key
// of the run's first entry and its byte offset within the index payload.
type sparseSlot struct {
	key string
	off int
}

// openTable validates the footer and index block, builds the sparse index
// and loads (or rebuilds) the bloom sidecar.
func openTable(dir string, meta tableMeta) (*table, error) {
	t := &table{meta: meta}
	if err := t.open(dir); err != nil {
		return nil, err
	}
	if err := t.init(dir); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

// open attaches the read-only file handle. It is all a table fresh from
// tableWriter.finish still needs; openTable follows it with init.
func (t *table) open(dir string) error {
	f, err := os.Open(filepath.Join(dir, t.meta.Name))
	if err != nil {
		return fmt.Errorf("lsm: %w", err)
	}
	t.f = f
	return nil
}

func (t *table) init(dir string) error {
	info, err := t.f.Stat()
	if err != nil {
		return fmt.Errorf("lsm: %w", err)
	}
	if info.Size() < int64(len(sstMagic))+footerSize {
		return fmt.Errorf("lsm: table %s truncated", t.meta.Name)
	}
	head := make([]byte, len(sstMagic))
	if _, err := t.f.ReadAt(head, 0); err != nil || !bytes.Equal(head, sstMagic) {
		return fmt.Errorf("lsm: table %s: bad magic", t.meta.Name)
	}
	footer := make([]byte, footerSize)
	if _, err := t.f.ReadAt(footer, info.Size()-footerSize); err != nil {
		return fmt.Errorf("lsm: %w", err)
	}
	if !bytes.Equal(footer[28:], sstFootMag) {
		return fmt.Errorf("lsm: table %s: bad footer magic", t.meta.Name)
	}
	if crc32.ChecksumIEEE(footer[:24]) != binary.LittleEndian.Uint32(footer[24:28]) {
		return fmt.Errorf("lsm: table %s: footer CRC mismatch", t.meta.Name)
	}
	t.indexOff = int64(binary.LittleEndian.Uint64(footer))
	t.indexLen = int64(binary.LittleEndian.Uint64(footer[8:]))
	t.count = binary.LittleEndian.Uint64(footer[16:])
	if t.indexOff < int64(len(sstMagic)) || t.indexLen < 0 || t.indexOff+t.indexLen+footerSize != info.Size() {
		return fmt.Errorf("lsm: table %s: footer geometry out of range", t.meta.Name)
	}
	payload, err := t.indexPayload()
	if err != nil {
		return err
	}
	// Only the sparse slots keep a key, so the walk reads the rest in place.
	cur := indexCursor{b: payload}
	var r rawEntry
	var ck []byte
	var i uint64
	for {
		off := cur.off
		ok, err := cur.nextRaw(&r)
		if err != nil {
			return fmt.Errorf("lsm: table %s: %w", t.meta.Name, err)
		}
		if !ok {
			break
		}
		if i%sparseEvery == 0 {
			ck = appendComposite(ck[:0], r.typ, r.id)
			t.sparse = append(t.sparse, sparseSlot{key: string(ck), off: off})
		}
		i++
	}
	if i != t.count {
		return fmt.Errorf("lsm: table %s: index holds %d entries, footer says %d", t.meta.Name, i, t.count)
	}
	if bl, err := loadBloom(filepath.Join(dir, bloomName(t.meta.Name))); err == nil {
		t.bloom = bl
	} else {
		// Sidecar missing or damaged: rebuild from the index block we just
		// validated and rewrite it for the next open.
		bl = newBloom(int(t.count))
		cur = indexCursor{b: payload}
		for {
			ok, err := cur.nextRaw(&r)
			if err != nil || !ok {
				break
			}
			ck = appendComposite(ck[:0], r.typ, r.id)
			bl.add(keyHash(ck))
		}
		t.bloom = bl
		os.WriteFile(filepath.Join(dir, bloomName(t.meta.Name)), bl.marshal(), 0o644)
	}
	return nil
}

// indexPayload reads the index frame: the section the footer names, read
// whole, which must hold that one frame exactly.
func (t *table) indexPayload() ([]byte, error) {
	frame := make([]byte, t.indexLen)
	if _, err := t.f.ReadAt(frame, t.indexOff); err != nil {
		return nil, fmt.Errorf("lsm: %w", err)
	}
	payload, err := storage.CheckFrame(frame)
	if err != nil {
		return nil, fmt.Errorf("lsm: table %s: index frame: %w", t.meta.Name, err)
	}
	return payload, nil
}

func (t *table) close() {
	if t.f != nil {
		t.f.Close()
		t.f = nil
	}
}

// findEntry locates key's index entry via the sparse index, reading only the
// covering run of the index block. Returns errNotFound for an absent key.
func (t *table) findEntry(ck string) (indexEntry, error) {
	if len(t.sparse) == 0 || ck < t.sparse[0].key {
		return indexEntry{}, errNotFound
	}
	// The slot before lo is the greatest whose first key <= ck.
	lo := sort.Search(len(t.sparse), func(i int) bool { return t.sparse[i].key > ck })
	slot := t.sparse[lo-1]
	end := int(t.indexLen - storage.FrameHeader)
	if lo < len(t.sparse) {
		end = t.sparse[lo].off
	}
	run := make([]byte, end-slot.off)
	if _, err := t.f.ReadAt(run, t.indexOff+storage.FrameHeader+int64(slot.off)); err != nil {
		return indexEntry{}, fmt.Errorf("lsm: %w", err)
	}
	// The walk compares each entry's key bytes where they lie; only the
	// match becomes an indexEntry, its key cut from ck.
	cur := indexCursor{b: run}
	var r rawEntry
	for {
		ok, err := cur.nextRaw(&r)
		if err != nil {
			return indexEntry{}, fmt.Errorf("lsm: table %s: %w", t.meta.Name, err)
		}
		if !ok {
			return indexEntry{}, errNotFound
		}
		switch cmpComposite(r.typ, r.id, ck) {
		case 0:
			return indexEntry{
				key:   entity.Key{Type: ck[:len(r.typ)], ID: ck[len(r.typ)+1:]},
				flags: r.flags, horizon: r.horizon, detailCount: r.detailCount,
				dataOff: int64(r.dataOff), dataLen: int64(r.dataLen),
			}, nil
		case 1:
			return indexEntry{}, errNotFound
		}
	}
}

// frames returns a walker over the table's data frames, positioned at off
// and bounded by end and by the data block.
func (t *table) frames(off, end int64) storage.FrameReader {
	fr := storage.NewFrameReader(t.f, t.meta.Name, int64(len(sstMagic)), min(end, t.indexOff))
	fr.MoveTo(off)
	return fr
}

// next reads the frame at fr's position and returns its payload, valid until
// the next call. Whatever else storage finds there — no frame at all before
// the section's end included — is the table's error.
func (t *table) next(fr *storage.FrameReader) ([]byte, error) {
	at := fr.Off()
	payload, err := fr.Next()
	if err == io.EOF {
		err = fmt.Errorf("no frame at %d inside its section: %w", at, io.ErrUnexpectedEOF)
	}
	if err != nil {
		return nil, fmt.Errorf("lsm: table %s: %w", t.meta.Name, err)
	}
	return payload, nil
}

// record is next plus the decode.
func (t *table) record(fr *storage.FrameReader) (storage.WALRecord, error) {
	payload, err := t.next(fr)
	if err != nil {
		return storage.WALRecord{}, err
	}
	rec, err := storage.DecodeRecord(payload)
	if err != nil {
		return storage.WALRecord{}, fmt.Errorf("lsm: table %s: %w", t.meta.Name, err)
	}
	return rec, nil
}

// lookupSummary returns the key's settled summary record, errNotFound when
// the table holds no summary for it (absent key or detail-only entry). The
// index entry bounds the key's frames, so header and payload arrive in one
// read.
func (t *table) lookupSummary(key entity.Key) (storage.WALRecord, error) {
	e, err := t.findEntry(compositeKey(key))
	if err != nil {
		return storage.WALRecord{}, err
	}
	if e.flags&entryHasSummary == 0 {
		return storage.WALRecord{}, errNotFound
	}
	fr := t.frames(e.dataOff, e.dataOff+e.dataLen)
	rec, err := t.record(&fr)
	if err != nil {
		return storage.WALRecord{}, err
	}
	if rec.Kind != storage.KindSummary {
		return storage.WALRecord{}, fmt.Errorf("lsm: table %s: entry for %s/%s does not start with its summary", t.meta.Name, key.Type, key.ID)
	}
	return rec, nil
}

// replay streams the table's recovery view: per key a light summary pointer
// (KindSummary with Horizon but a nil Summary state — the payload stays on
// disk until a cold read warms it) and every detail record in full. A key
// without detail costs no I/O at all; the detail-bearing ones stream through
// one sequential reader.
func (t *table) replay(fn func(storage.WALRecord) error) error {
	payload, err := t.indexPayload()
	if err != nil {
		return err
	}
	cur := indexCursor{b: payload}
	fr := t.frames(int64(len(sstMagic)), t.indexOff)
	var e indexEntry
	for {
		ok, err := cur.next(&e)
		if err != nil {
			return fmt.Errorf("lsm: table %s: %w", t.meta.Name, err)
		}
		if !ok {
			return nil
		}
		summarised := e.flags&entryHasSummary != 0
		if summarised {
			if err := fn(storage.WALRecord{Kind: storage.KindSummary, Key: e.key, Horizon: e.horizon}); err != nil {
				return err
			}
		}
		if e.detailCount == 0 {
			continue
		}
		fr.MoveTo(e.dataOff)
		if summarised {
			// Step over the summary frame without decoding its payload.
			if _, err := t.next(&fr); err != nil {
				return err
			}
		}
		for i := uint64(0); i < e.detailCount; i++ {
			rec, err := t.record(&fr)
			if err != nil {
				return err
			}
			if err := fn(rec); err != nil {
				return err
			}
		}
	}
}
