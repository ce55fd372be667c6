package lsm

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/clock"
	"repro/internal/entity"
	"repro/internal/storage"
)

func testKey(i int) entity.Key {
	return entity.Key{Type: "Account", ID: fmt.Sprintf("a%03d", i)}
}

// summaryRec builds a settled-summary record: a frozen state carrying one
// balance field, with the given horizon.
func summaryRec(key entity.Key, horizon uint64, balance float64) storage.WALRecord {
	st := entity.NewState(key)
	st.Fields = entity.Fields{"balance": balance}
	st.Freeze()
	return storage.WALRecord{Kind: storage.KindSummary, Key: key, Horizon: horizon, Summary: st}
}

func detailRec(key entity.Key, lsn uint64, tentative, obsolete bool) storage.WALRecord {
	return storage.WALRecord{
		LSN:       lsn,
		Key:       key,
		Ops:       []entity.Op{entity.Delta("balance", float64(lsn))},
		Stamp:     clock.Timestamp{WallNanos: int64(lsn), Node: "t"},
		Origin:    "t",
		TxnID:     fmt.Sprintf("t%d", lsn),
		Tentative: tentative,
		Obsolete:  obsolete,
	}
}

func openTestStore(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	wal, err := storage.OpenWAL(storage.WALOptions{Dir: dir, SegmentBytes: 2048, Sync: storage.SyncOS})
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	if opts.Dir == "" {
		opts.Dir = filepath.Join(dir, "sst")
	}
	s, err := Open(wal, opts)
	if err != nil {
		t.Fatalf("lsm.Open: %v", err)
	}
	return s
}

// scan streams every record of the table in key order, with the index entry
// it belongs to.
func (t *table) scan(fn func(e indexEntry, rec storage.WALRecord) error) error {
	payload, err := t.indexPayload()
	if err != nil {
		return err
	}
	cur := indexCursor{b: payload}
	fr := t.frames(0, t.indexOff)
	var e indexEntry
	for {
		ok, err := cur.next(&e)
		if err != nil || !ok {
			return err
		}
		fr.off = e.dataOff
		for fr.off < e.dataOff+e.dataLen {
			rec, err := fr.record()
			if err != nil {
				return err
			}
			if err := fn(e, rec); err != nil {
				return err
			}
		}
	}
}

// TestTableRoundTrip writes one table with enough keys to exercise the sparse
// index, reopens it, and checks lookup, replay and scan agree with the input.
func TestTableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := newTableWriter(dir, tableName(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 40 // > 2 sparse runs at sparseEvery=16
	details := 0
	for i := 0; i < keys; i++ {
		k := testKey(i)
		if err := w.add(&[]storage.WALRecord{summaryRec(k, uint64(10*i+1), float64(i))}[0]); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < i%3; j++ {
			rec := detailRec(k, uint64(10*i+2+j), j == 0, false)
			if err := w.add(&rec); err != nil {
				t.Fatal(err)
			}
			details++
		}
	}
	written, err := w.finish(nil)
	if err != nil {
		t.Fatal(err)
	}
	meta := written.meta
	meta.Level, meta.Seq = 0, 1
	if meta.Keys != keys {
		t.Fatalf("meta.Keys = %d, want %d", meta.Keys, keys)
	}
	tb, err := openTable(dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.close()

	for i := 0; i < keys; i++ {
		rec, err := tb.lookupSummary(testKey(i))
		if err != nil {
			t.Fatalf("lookupSummary(%d): %v", i, err)
		}
		if rec.Kind != storage.KindSummary || rec.Horizon != uint64(10*i+1) {
			t.Fatalf("key %d: summary %+v", i, rec)
		}
		if got := rec.Summary.Fields["balance"]; got != float64(i) {
			t.Fatalf("key %d: balance %v, want %d", i, got, i)
		}
	}
	if _, err := tb.lookupSummary(entity.Key{Type: "Account", ID: "missing"}); err != errNotFound {
		t.Fatalf("absent key: %v, want errNotFound", err)
	}

	var pointers, replayDetails int
	if err := tb.replay(func(rec storage.WALRecord) error {
		switch rec.Kind {
		case storage.KindSummary:
			if rec.Summary != nil {
				t.Fatal("replay must emit light summary pointers, not payloads")
			}
			if rec.Horizon == 0 {
				t.Fatal("summary pointer lost its horizon")
			}
			pointers++
		case storage.KindAppend:
			if len(rec.Ops) == 0 {
				t.Fatal("detail record lost its ops")
			}
			replayDetails++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if pointers != keys || replayDetails != details {
		t.Fatalf("replay saw %d pointers / %d details, want %d / %d", pointers, replayDetails, keys, details)
	}

	scanned := 0
	if err := tb.scan(func(indexEntry, storage.WALRecord) error { scanned++; return nil }); err != nil {
		t.Fatal(err)
	}
	if scanned != keys+details {
		t.Fatalf("scan saw %d records, want %d", scanned, keys+details)
	}
}

// TestTableWriterRejectsDisorder pins the writer's input contract: keys in
// composite order, each key's summary first.
func TestTableWriterRejectsDisorder(t *testing.T) {
	dir := t.TempDir()
	w, err := newTableWriter(dir, tableName(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.abort()
	b := detailRec(testKey(2), 1, false, false)
	if err := w.add(&b); err != nil {
		t.Fatal(err)
	}
	a := detailRec(testKey(1), 2, false, false)
	if err := w.add(&a); err == nil {
		t.Fatal("out-of-order key accepted")
	}
	w2, err := newTableWriter(dir, tableName(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.abort()
	d := detailRec(testKey(1), 1, false, false)
	if err := w2.add(&d); err != nil {
		t.Fatal(err)
	}
	s := summaryRec(testKey(1), 1, 0)
	if err := w2.add(&s); err == nil {
		t.Fatal("summary after detail accepted")
	}
}

// TestBloomFilter: no false negatives ever, sidecar round-trips, and the
// false-positive rate stays in the neighbourhood the sizing promises.
func TestBloomFilter(t *testing.T) {
	const n = 500
	bl := newBloom(n)
	for i := 0; i < n; i++ {
		bl.add(keyHash(compositeKey(testKey(i))))
	}
	for i := 0; i < n; i++ {
		if !bl.mayContain(keyHash(compositeKey(testKey(i)))) {
			t.Fatalf("false negative for key %d", i)
		}
	}
	path := filepath.Join(t.TempDir(), "x.blm")
	if err := os.WriteFile(path, bl.marshal(), 0o644); err != nil {
		t.Fatal(err)
	}
	bl2, err := loadBloom(path)
	if err != nil {
		t.Fatal(err)
	}
	fp := 0
	for i := 0; i < n; i++ {
		if !bl2.mayContain(keyHash(compositeKey(testKey(i)))) {
			t.Fatalf("sidecar round trip lost key %d", i)
		}
		if bl2.mayContain(keyHash(compositeKey(testKey(i + 10000)))) {
			fp++
		}
	}
	// 10 bits/key targets ~1%; 10% is a loose ceiling that still catches a
	// broken hash mix.
	if fp > n/10 {
		t.Fatalf("%d/%d false positives", fp, n)
	}
}

// TestOrphanSweep: open removes temp files, quarantines unmanifested tables
// and deletes their sidecars, and never reuses an orphan's sequence number.
func TestOrphanSweep(t *testing.T) {
	dir := t.TempDir()
	sstDir := filepath.Join(dir, "sst")
	if err := os.MkdirAll(sstDir, 0o755); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(sstDir, tableName(9))
	for _, f := range []string{orphan, filepath.Join(sstDir, "sst-0000000009.blm"), filepath.Join(sstDir, "sst-0000000003.sst.tmp")} {
		if err := os.WriteFile(f, []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := openTestStore(t, dir, Options{Dir: sstDir})
	defer s.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphan table not quarantined: %v", err)
	}
	if _, err := os.Stat(orphan + ".orphaned"); err != nil {
		t.Fatalf("quarantined copy missing: %v", err)
	}
	if m, _ := filepath.Glob(filepath.Join(sstDir, "*.tmp")); len(m) != 0 {
		t.Fatalf("temp files survived open: %v", m)
	}
	if m, _ := filepath.Glob(filepath.Join(sstDir, "*.blm")); len(m) != 0 {
		t.Fatalf("unmanifested sidecars survived open: %v", m)
	}
	// The next flush must land past the orphan's sequence.
	if err := s.FlushTable([]storage.WALRecord{summaryRec(testKey(1), 1, 1)}, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(sstDir, tableName(10))); err != nil {
		t.Fatalf("flush after orphan sweep did not skip its sequence: %v", err)
	}
}

// TestFlushLookupPruneRecover is the single-table lifecycle: records land in
// the WAL, a flush makes them table-durable and prunes the covered segments,
// lookups come back bloom-guided, and a reopened store replays pointers plus
// nothing from the emptied WAL.
func TestFlushLookupPruneRecover(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{})
	const keys = 8
	var lsn uint64
	var entries []storage.WALRecord
	for i := 0; i < keys; i++ {
		var batch []storage.WALRecord
		for j := 0; j < 4; j++ {
			lsn++
			batch = append(batch, detailRec(testKey(i), lsn, false, false))
		}
		if err := s.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
		entries = append(entries, summaryRec(testKey(i), lsn, float64(i)))
	}
	boundary, err := s.SealWAL()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.FlushTable(entries, lsn, boundary); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < keys; i++ {
		rec, err := s.LookupSummary(testKey(i))
		if err != nil || rec == nil {
			t.Fatalf("LookupSummary(%d): %v, %v", i, rec, err)
		}
		if rec.Horizon == 0 || rec.Summary.Fields["balance"] != float64(i) {
			t.Fatalf("key %d: %+v", i, rec)
		}
	}
	if rec, err := s.LookupSummary(entity.Key{Type: "Account", ID: "nope"}); rec != nil || err != nil {
		t.Fatalf("absent key: %v, %v", rec, err)
	}
	st := s.TieredStats()
	if st.Tables != 1 || st.L0Tables != 1 || st.TableKeys != keys || st.Flushes != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.BloomHits == 0 {
		t.Fatalf("lookups bypassed the bloom accounting: %+v", st)
	}

	// The flush pruned the sealed segments: replication cuts below the table
	// watermark are gone.
	if err := s.StreamAfter(0, func(storage.WALRecord) error { return nil }); !errors.Is(err, storage.ErrCompacted) {
		t.Fatalf("StreamAfter over pruned history = %v, want ErrCompacted", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTestStore(t, dir, Options{})
	defer s2.Close()
	pointers := 0
	watermark, err := s2.Replay(func(rec storage.WALRecord) error {
		if rec.Kind == storage.KindSummary && rec.Summary == nil {
			pointers++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if pointers != keys {
		t.Fatalf("replay after reopen: %d pointers, want %d", pointers, keys)
	}
	if watermark < lsn {
		t.Fatalf("replay watermark %d below flushed history %d", watermark, lsn)
	}
}

// TestCompactionMergeRules pins the three merge rules on overlapping level-0
// tables: newest summary wins, detail at or below its horizon is dropped,
// obsolete detail is eliminated, and duplicate LSNs collapse to one copy.
func TestCompactionMergeRules(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{CompactAfter: 100}) // no auto trigger
	defer s.Close()
	k := testKey(1)
	old := []storage.WALRecord{
		summaryRec(k, 10, 10),
		detailRec(k, 11, false, false),
		detailRec(k, 12, true, true), // withdrawn promise: must die at merge
		detailRec(k, 13, false, false),
		summaryRec(testKey(2), 5, 5), // only in the older table: must survive
	}
	if err := s.FlushTable(old, 13, 0); err != nil {
		t.Fatal(err)
	}
	newer := []storage.WALRecord{
		summaryRec(k, 12, 12),
		detailRec(k, 13, false, false), // duplicate of the older table's 13
		detailRec(k, 14, true, false),  // live promise above the horizon
	}
	if err := s.FlushTable(newer, 14, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.CompactNow(); err != nil {
		t.Fatalf("CompactNow: %v", err)
	}

	st := s.TieredStats()
	if st.Tables != 1 || st.L0Tables != 0 || st.Compactions != 1 {
		t.Fatalf("post-compaction stats %+v", st)
	}
	rec, err := s.LookupSummary(k)
	if err != nil || rec == nil {
		t.Fatalf("LookupSummary: %v, %v", rec, err)
	}
	if rec.Horizon != 12 || rec.Summary.Fields["balance"] != 12.0 {
		t.Fatalf("newest summary did not win: %+v", rec)
	}
	if rec, err := s.LookupSummary(testKey(2)); err != nil || rec == nil || rec.Horizon != 5 {
		t.Fatalf("older-table-only key lost: %v, %v", rec, err)
	}

	s.mu.Lock()
	merged := s.tables[0]
	s.mu.Unlock()
	if merged.meta.Level != 1 {
		t.Fatalf("merged table level %d, want 1", merged.meta.Level)
	}
	var lsns []uint64
	if err := merged.scan(func(e indexEntry, rec storage.WALRecord) error {
		if rec.Kind == storage.KindAppend && compositeKey(e.key) == compositeKey(k) {
			lsns = append(lsns, rec.LSN)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Horizon 12 drops 11 and the duplicate-free survivor set is {13, 14}; the
	// obsolete 12 is eliminated outright.
	if len(lsns) != 2 || lsns[0] != 13 || lsns[1] != 14 {
		t.Fatalf("surviving detail %v, want [13 14]", lsns)
	}
	// The superseded inputs are gone from disk, manifest and directory alike.
	if m, _ := filepath.Glob(filepath.Join(s.opts.Dir, "*.sst")); len(m) != 1 {
		t.Fatalf("input tables not removed: %v", m)
	}
}

// TestCompactionDoesNotResurrectWithdrawnPromise: the obsolete flag of a
// withdrawn promise can live only in the newer table's copy of the LSN — the
// older table holds the pre-mark live copy, both retained as detail because
// an earlier live tentative record blocks the horizon. The merge must
// eliminate every copy of that LSN regardless of which copy it encounters
// first; letting the older live copy through would permanently resurrect the
// withdrawn promise, since the covering WAL settlement is pruned.
func TestCompactionDoesNotResurrectWithdrawnPromise(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{CompactAfter: 100})
	defer s.Close()
	k := testKey(1)
	older := []storage.WALRecord{
		summaryRec(k, 10, 10),
		detailRec(k, 11, true, false), // live tentative: blocks the horizon
		detailRec(k, 12, true, false), // the promise, before its withdrawal
	}
	if err := s.FlushTable(older, 12, 0); err != nil {
		t.Fatal(err)
	}
	newer := []storage.WALRecord{
		summaryRec(k, 10, 10),         // horizon still blocked at 10 by LSN 11
		detailRec(k, 11, true, false), // still live
		detailRec(k, 12, true, true),  // the withdrawal reached this flush
	}
	if err := s.FlushTable(newer, 12, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.CompactNow(); err != nil {
		t.Fatalf("CompactNow: %v", err)
	}
	s.mu.Lock()
	merged := s.tables[0]
	s.mu.Unlock()
	var lsns []uint64
	obsoleteSurvived := false
	if err := merged.scan(func(_ indexEntry, rec storage.WALRecord) error {
		if rec.Kind == storage.KindAppend {
			lsns = append(lsns, rec.LSN)
			if rec.Obsolete {
				obsoleteSurvived = true
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(lsns) != 1 || lsns[0] != 11 || obsoleteSurvived {
		t.Fatalf("surviving detail %v (obsolete kept: %v), want only the live promise [11]", lsns, obsoleteSurvived)
	}
}

// TestFlushFailureInjection: an injected flush error counts, leaves no table
// behind, and the next clean flush succeeds.
func TestFlushFailureInjection(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("disk on fire")
	armed := true
	hooks := &Hooks{FlushErr: func() error {
		if armed {
			return boom
		}
		return nil
	}}
	s := openTestStore(t, dir, Options{Hooks: hooks})
	defer s.Close()
	entries := []storage.WALRecord{summaryRec(testKey(1), 1, 1)}
	if err := s.FlushTable(entries, 1, 0); !errors.Is(err, boom) {
		t.Fatalf("injected failure not surfaced: %v", err)
	}
	if st := s.TieredStats(); st.FlushFailures != 1 || st.Tables != 0 {
		t.Fatalf("stats after failed flush: %+v", st)
	}
	armed = false
	if err := s.FlushTable(entries, 1, 0); err != nil {
		t.Fatalf("clean retry failed: %v", err)
	}
	if st := s.TieredStats(); st.Flushes != 1 || st.Tables != 1 {
		t.Fatalf("stats after retry: %+v", st)
	}
}
