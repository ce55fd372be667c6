package lsdb

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/entity"
	"repro/internal/storage"
)

// openTestWAL opens a segmented WAL in dir with small segments so rotation
// and flush pruning are exercised even by small tests.
func openTestWAL(t testing.TB, dir string, sync storage.SyncMode) *storage.WAL {
	t.Helper()
	w, err := storage.OpenWAL(storage.WALOptions{Dir: dir, SegmentBytes: 4096, Sync: sync})
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	return w
}

// assertIdenticalStores is the strict recovery check: identical record logs
// (every field of every record), identical LSN watermark, and byte-identical
// entity states — root fields compared deep, every child collection row for
// row including tombstones, and the deleted/tentative flags.
func assertIdenticalStores(t *testing.T, want, got *DB) {
	t.Helper()
	wr, gr := want.RecordsAfterN(0, 0), got.RecordsAfterN(0, 0)
	if !reflect.DeepEqual(wr, gr) {
		t.Fatalf("record logs differ: %d vs %d records", len(wr), len(gr))
	}
	if want.HeadLSN() != got.HeadLSN() {
		t.Fatalf("LSN watermark differs: %d vs %d", want.HeadLSN(), got.HeadLSN())
	}
	wantKeys, gotKeys := allKeys(want), allKeys(got)
	if !reflect.DeepEqual(wantKeys, gotKeys) {
		t.Fatalf("key sets differ: %v vs %v", wantKeys, gotKeys)
	}
	for _, key := range wantKeys {
		sw, hw, errW := want.Current(key)
		sg, hg, errG := got.Current(key)
		if errW != nil || errG != nil {
			t.Fatalf("Current(%s): %v / %v", key, errW, errG)
		}
		if hw != hg {
			t.Fatalf("%s: head LSN %d vs %d", key, hw, hg)
		}
		if !reflect.DeepEqual(sw.Fields, sg.Fields) {
			t.Fatalf("%s: fields differ:\nwant %v\n got %v", key, sw.Fields, sg.Fields)
		}
		if sw.Tentative != sg.Tentative || sw.Deleted != sg.Deleted {
			t.Fatalf("%s: flags differ: tentative %v/%v deleted %v/%v",
				key, sw.Tentative, sg.Tentative, sw.Deleted, sg.Deleted)
		}
		if !reflect.DeepEqual(sw.Collections(), sg.Collections()) {
			t.Fatalf("%s: collections differ: %v vs %v", key, sw.Collections(), sg.Collections())
		}
		for _, col := range sw.Collections() {
			if !reflect.DeepEqual(sw.Children(col), sg.Children(col)) {
				t.Fatalf("%s.%s: rows differ:\nwant %v\n got %v", key, col, sw.Children(col), sg.Children(col))
			}
		}
	}
}

// TestRecoverRoundTripConcurrentWriters is the core serial/recovered
// equivalence check: a store populated by concurrent writers, with every
// commit cycle forced to the WAL, reopens from its data
// directory to byte-identical states and the same LSN watermark. Run under
// -race in CI.
func TestRecoverRoundTripConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	wal := openTestWAL(t, dir, storage.SyncAlways)
	db := newTestDB(t, Options{Shards: 4, SnapshotEvery: 8, Backend: wal})
	scripts := buildScripts(99, 8, 40, 3)
	runScriptsConcurrent(t, db, scripts)
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Recover into a different shard layout on purpose: the durable log is
	// shard-count independent.
	rec, err := Recover(Options{Node: "test-node", Shards: 2, SnapshotEvery: 8, Backend: openTestWAL(t, dir, storage.SyncAlways)},
		accountType(), orderType())
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	assertIdenticalStores(t, db, rec)
	assertDenseLSNs(t, rec, len(db.RecordsAfterN(0, 0)))

	// The recovered store continues the log: new appends get fresh LSNs and
	// reach the same WAL.
	head := rec.HeadLSN()
	res, err := rec.Append(entity.Key{Type: "Account", ID: "post"}, []entity.Op{entity.Delta("balance", 1)}, stamp(1), "test-node", "")
	if err != nil {
		t.Fatalf("append after recover: %v", err)
	}
	if res.Record.LSN != head+1 {
		t.Fatalf("append after recover got LSN %d, want %d", res.Record.LSN, head+1)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverReplaysOnlyPostCheckpointSegments pins the checkpoint win: after
// a checkpoint (a tiered flush), segments before it are pruned from the
// directory and recovery rebuilds from the tables plus the tail alone.
func TestRecoverReplaysOnlyPostCheckpointSegments(t *testing.T) {
	dir := t.TempDir()
	db := newTestDB(t, Options{Shards: 4, Backend: openTestTiered(t, dir, nil)})
	key := func(i int) entity.Key { return entity.Key{Type: "Account", ID: fmt.Sprintf("a%d", i%7)} }
	for i := 0; i < 300; i++ {
		if _, err := db.Append(key(i), []entity.Op{entity.Delta("balance", 1)}, stamp(int64(i+1)), "n", ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	for i := 300; i < 340; i++ {
		if _, err := db.Append(key(i), []entity.Op{entity.Delta("balance", 1)}, stamp(int64(i+1)), "n", ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// The checkpoint pruned fully-covered segments; at 4 KiB per segment the
	// 300 pre-checkpoint records spanned several.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) > 2 {
		t.Fatalf("expected pre-checkpoint segments pruned, still have %d", len(segs))
	}

	rec, err := Recover(Options{Node: "test-node", Shards: 4, Backend: openTestTiered(t, dir, nil)},
		accountType(), orderType())
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	assertTieredStates(t, db, rec)
	rec.Close()
}

// TestRecoverAfterCompactAndMarkObsolete covers the history-rewrite marks:
// obsolescence and compaction must survive a restart, including summaries of
// entities whose detail records are gone from the log. With checkpointAfter
// the store is tiered and flushed before it closes, so the summaries and the
// withdrawn promise come back from a table.
func TestRecoverAfterCompactAndMarkObsolete(t *testing.T) {
	for _, checkpointAfter := range []bool{false, true} {
		t.Run(fmt.Sprintf("checkpoint=%v", checkpointAfter), func(t *testing.T) {
			dir := t.TempDir()
			backend := func() storage.Backend { return openTestWAL(t, dir, storage.SyncOS) }
			if checkpointAfter {
				backend = func() storage.Backend { return openTestTiered(t, dir, nil) }
			}
			db := newTestDB(t, Options{Shards: 4, SnapshotEvery: 4, Backend: backend()})

			// Cold entities: all activity before the horizon, later archived.
			for i := 0; i < 6; i++ {
				k := entity.Key{Type: "Account", ID: fmt.Sprintf("cold%d", i)}
				for j := 0; j < 3; j++ {
					if _, err := db.Append(k, []entity.Op{entity.Delta("balance", float64(j+1))}, stamp(int64(i*10+j+1)), "n", fmt.Sprintf("c%d-%d", i, j)); err != nil {
						t.Fatal(err)
					}
				}
			}
			// One cold order with child rows and a tombstone, to prove
			// summaries carry collections through recovery.
			ok := entity.Key{Type: "Order", ID: "cold-order"}
			for _, ops := range [][]entity.Op{
				{entity.InsertChild("lineitems", "L1", entity.Fields{"product": "widget", "qty": int64(2)})},
				{entity.InsertChild("lineitems", "L2", entity.Fields{"product": "gadget", "qty": int64(5)})},
				{entity.DeleteChild("lineitems", "L2")},
			} {
				if _, err := db.Append(ok, ops, stamp(100), "n", ""); err != nil {
					t.Fatal(err)
				}
			}
			// A tentative promise, withdrawn: the obsolete mark must stick.
			hot := entity.Key{Type: "Account", ID: "hot"}
			if _, err := db.AppendTentative(hot, []entity.Op{entity.Delta("balance", 500)}, stamp(200), "n", "promise-1"); err != nil {
				t.Fatal(err)
			}
			horizon := db.HeadLSN() - 1 // cold entities below, hot above
			if err := db.MarkObsolete(hot, "promise-1"); err != nil {
				t.Fatal(err)
			}
			db.Compact(horizon)
			// Post-compact traffic on hot and one revived cold entity.
			for i := 0; i < 5; i++ {
				if _, err := db.Append(hot, []entity.Op{entity.Delta("balance", 1)}, stamp(int64(300+i)), "n", ""); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := db.Append(entity.Key{Type: "Account", ID: "cold0"}, []entity.Op{entity.Delta("balance", 100)}, stamp(400), "n", ""); err != nil {
				t.Fatal(err)
			}
			if checkpointAfter {
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				warmEverything(t, db) // the flush evicted summaries; db is read after Close
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			rec, err := Recover(Options{Node: "test-node", Shards: 4, SnapshotEvery: 4, Backend: backend()},
				accountType(), orderType())
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if checkpointAfter {
				// A flushed store retains fewer raw records than the one
				// that wrote it: settled history lives in table summaries.
				assertTieredStates(t, db, rec)
			} else {
				assertIdenticalStores(t, db, rec)
				if rec.Len() != db.Len() {
					t.Fatalf("retained record counts differ: %d vs %d", rec.Len(), db.Len())
				}
			}
			// The withdrawn promise stays withdrawn.
			st, _, err := rec.Current(hot)
			if err != nil {
				t.Fatal(err)
			}
			if st.Fields["balance"] != 5.0 {
				t.Fatalf("hot balance = %v after recovery, want 5 (obsolete mark lost?)", st.Fields["balance"])
			}
			rec.Close()
		})
	}
}

// TestRecoverTornTail kills the store mid-record: recovery drops only the
// torn final record and reopens to the state of every completed commit.
func TestRecoverTornTail(t *testing.T) {
	dir := t.TempDir()
	db := newTestDB(t, Options{Shards: 2, Backend: openTestWAL(t, dir, storage.SyncOS)})
	k := entity.Key{Type: "Account", ID: "a"}
	for i := 0; i < 10; i++ {
		if _, err := db.Append(k, []entity.Op{entity.Delta("balance", 1)}, stamp(int64(i+1)), "n", ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Hard stop mid-write: the last frame is half on disk.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) != 1 {
		t.Fatalf("expected one segment, got %d", len(segs))
	}
	info, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], info.Size()-9); err != nil {
		t.Fatal(err)
	}

	rec, err := Recover(Options{Node: "test-node", Shards: 2, Backend: openTestWAL(t, dir, storage.SyncOS)},
		accountType(), orderType())
	if err != nil {
		t.Fatalf("Recover with torn tail: %v", err)
	}
	assertDenseLSNs(t, rec, 9)
	st, _, err := rec.Current(k)
	if err != nil {
		t.Fatal(err)
	}
	if st.Fields["balance"] != 9.0 {
		t.Fatalf("balance = %v after torn-tail recovery, want 9", st.Fields["balance"])
	}
	rec.Close()
}

// TestRecoverCorruptMidSegmentTypedError: real corruption (not a torn tail)
// must refuse recovery with the typed error.
func TestRecoverCorruptMidSegmentTypedError(t *testing.T) {
	dir := t.TempDir()
	db := newTestDB(t, Options{Backend: openTestWAL(t, dir, storage.SyncOS)})
	for i := 0; i < 20; i++ {
		if _, err := db.Append(entity.Key{Type: "Account", ID: "a"}, []entity.Op{entity.Delta("balance", 1)}, stamp(int64(i+1)), "n", ""); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(segs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Recover(Options{Node: "test-node", Backend: openTestWAL(t, dir, storage.SyncOS)},
		accountType(), orderType())
	var corrupt *storage.CorruptError
	if !errors.As(err, &corrupt) {
		t.Fatalf("Recover on corrupt segment returned %v, want *storage.CorruptError", err)
	}
}

// TestCheckpointWithoutTierOnlySyncs: on a bare WAL and on Memory,
// Checkpoint — called explicitly or armed by CheckpointEvery — forces the log
// and nothing else: no file appears beside the segments, no record leaves the
// log, and Recover rebuilds the identical store.
func TestCheckpointWithoutTierOnlySyncs(t *testing.T) {
	for _, name := range []string{"wal", "memory"} {
		t.Run(name, func(t *testing.T) {
			dir, mem := t.TempDir(), storage.NewMemory()
			backend := func() storage.Backend {
				if name == "memory" {
					return mem
				}
				return openTestWAL(t, dir, storage.SyncOS)
			}
			db := newTestDB(t, Options{Shards: 2, Backend: backend(), CheckpointEvery: 10})
			for i := 0; i < 35; i++ {
				if _, err := db.Append(entity.Key{Type: "Account", ID: fmt.Sprintf("a%d", i%3)}, []entity.Op{entity.Delta("balance", 1)}, stamp(int64(i+1)), "n", ""); err != nil {
					t.Fatal(err)
				}
				if i == 20 {
					if err := db.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := db.BackendErr(); err != nil {
				t.Fatalf("background persistence failed: %v", err)
			}
			if name == "memory" {
				if got := mem.Len(); got != 35 {
					t.Fatalf("memory backend retains %d records, want all 35", got)
				}
			} else {
				db.Close()
				files, err := filepath.Glob(filepath.Join(dir, "*"))
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range files {
					if base := filepath.Base(f); base != "LOCK" && filepath.Ext(base) != ".seg" {
						t.Fatalf("checkpoint left %s beside the segments", base)
					}
				}
			}
			rec, err := Recover(Options{Node: "test-node", Shards: 2, Backend: backend()}, accountType(), orderType())
			if err != nil {
				t.Fatal(err)
			}
			assertIdenticalStores(t, db, rec)
			if rec.Len() != 35 {
				t.Fatalf("recovered %d records, want 35", rec.Len())
			}
			rec.Close()
		})
	}
}

// TestInt64ExactBothPaths: int64 values with magnitudes above 2^53 — which
// a float64 round trip corrupts — must survive both the Save/Load stream and
// the WAL (Backend + Recover) exactly, and so must an integral float64 in an
// undeclared field, which a managed store keeps as the caller wrote it (a
// text codec reads 2.0 back as int64).
func TestInt64ExactBothPaths(t *testing.T) {
	big := int64(1)<<60 + 7 // not representable in float64
	seed := func(db *DB) {
		t.Helper()
		if err := db.RegisterType(&entity.Type{Name: "Big", Fields: []entity.Field{{Name: "n", Type: entity.Int}}}); err != nil {
			t.Fatal(err)
		}
		k := entity.Key{Type: "Big", ID: "x"}
		if _, err := db.Append(k, []entity.Op{entity.Set("n", big)}, stamp(1), "n", ""); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Append(k, []entity.Op{entity.Set("note", 2.0)}, stamp(3), "n", ""); err != nil {
			t.Fatal(err)
		}
		ok := entity.Key{Type: "Order", ID: "o"}
		if _, err := db.Append(ok, []entity.Op{entity.InsertChild("lineitems", "L1", entity.Fields{"qty": big})}, stamp(2), "n", ""); err != nil {
			t.Fatal(err)
		}
	}
	check := func(t *testing.T, db *DB) {
		t.Helper()
		st, _, err := db.Current(entity.Key{Type: "Big", ID: "x"})
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Fields["n"]; got != big {
			t.Fatalf("root int64 corrupted: got %v (%T), want %d", got, got, big)
		}
		if got := st.Fields["note"]; got != 2.0 {
			t.Fatalf("undeclared float changed: got %v (%T), want float64 2", got, got)
		}
		so, _, err := db.Current(entity.Key{Type: "Order", ID: "o"})
		if err != nil {
			t.Fatal(err)
		}
		row, found := so.ChildByID("lineitems", "L1")
		if !found {
			t.Fatal("child row lost")
		}
		if got := row.Fields["qty"]; got != big {
			t.Fatalf("child int64 corrupted: got %v (%T), want %d", got, got, big)
		}
	}

	t.Run("stream", func(t *testing.T) {
		src := newTestDB(t, Options{Validation: entity.Managed})
		seed(src)
		var buf bytes.Buffer
		if err := src.Save(&buf); err != nil {
			t.Fatal(err)
		}
		dst := newTestDB(t, Options{Validation: entity.Managed})
		if err := dst.RegisterType(&entity.Type{Name: "Big", Fields: []entity.Field{{Name: "n", Type: entity.Int}}}); err != nil {
			t.Fatal(err)
		}
		if err := dst.Load(&buf); err != nil {
			t.Fatal(err)
		}
		check(t, dst)
	})
	t.Run("wal", func(t *testing.T) {
		dir := t.TempDir()
		src := newTestDB(t, Options{Validation: entity.Managed, Backend: openTestTiered(t, dir, nil)})
		seed(src)
		if err := src.Checkpoint(); err != nil { // exercise the table codec too
			t.Fatal(err)
		}
		src.Close()
		rec, err := Recover(Options{Node: "test-node", Backend: openTestTiered(t, dir, nil)},
			accountType(), orderType(), &entity.Type{Name: "Big", Fields: []entity.Field{{Name: "n", Type: entity.Int}}})
		if err != nil {
			t.Fatal(err)
		}
		check(t, rec)
		rec.Close()
	})
}

// TestUint64ExactStreamCodec: uint64 values above MaxInt64 keep their
// identity through canonicalisation and the binary codec; the Save/Load
// stream must not quietly demote them to float64 either.
func TestUint64ExactStreamCodec(t *testing.T) {
	huge := uint64(math.MaxUint64)
	src := newTestDB(t, Options{Validation: entity.Managed})
	if _, err := src.Append(entity.Key{Type: "Account", ID: "u"}, []entity.Op{entity.Set("v", huge)}, stamp(1), "n", ""); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	dst := newTestDB(t, Options{Validation: entity.Managed})
	if err := dst.Load(&buf); err != nil {
		t.Fatal(err)
	}
	got := dst.RecordsAfterN(0, 0)
	if len(got) != 1 {
		t.Fatalf("loaded %d records, want 1", len(got))
	}
	if v := got[0].Ops[0].Value; v != huge {
		t.Fatalf("uint64 corrupted through the stream: got %v (%T), want %d", v, v, huge)
	}
}

// TestMemoryBackendRecoverEquivalence runs the same workload against the
// Memory backend: Recover must behave identically, so tests and deployments
// can swap backends freely.
func TestMemoryBackendRecoverEquivalence(t *testing.T) {
	mem := storage.NewMemory()
	db := newTestDB(t, Options{Shards: 4, Backend: mem})
	runScriptsConcurrent(t, db, buildScripts(7, 4, 30, 2))
	rec, err := Recover(Options{Node: "test-node", Shards: 4, Backend: mem}, accountType(), orderType())
	if err != nil {
		t.Fatal(err)
	}
	assertIdenticalStores(t, db, rec)
}

// A standby's log can hold an older build's marks twice: it appends every
// mark frame it receives, and a catch-up from another standby sends them
// again. Replaying a repeated mark changes nothing: a second obsolescence
// mark finds its record already obsolete (or compacted away), and a second
// Compact at a horizon already applied archives nothing. So the log with
// every mark repeated recovers to the store the log with each mark once
// does.
func TestRepeatedLegacyMarksReplayAsNoOps(t *testing.T) {
	a, b := acct("A"), acct("B")
	var logs []*storage.Memory
	for _, repeat := range []int{1, 2} {
		backend := storage.NewMemory()
		db := newTestDB(t, Options{Backend: backend})
		write := func(key entity.Key, delta float64, txn string, tentative bool) {
			t.Helper()
			var err error
			if tentative {
				_, err = db.AppendTentative(key, []entity.Op{entity.Delta("balance", delta)}, stamp(int64(db.HeadLSN()+1)), "n", txn)
			} else {
				_, err = db.Append(key, []entity.Op{entity.Delta("balance", delta)}, stamp(int64(db.HeadLSN()+1)), "n", txn)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		write(a, 5, "a1", false)
		write(a, -3, "p1", true)
		write(b, 1, "b1", false)
		for i := 0; i < repeat; i++ {
			if err := db.MarkObsolete(a, "p1"); err != nil {
				t.Fatal(err)
			}
			if st, _, err := db.Current(a); err != nil || st.Float("balance") != 5 || !db.Exists(a) {
				t.Fatalf("after %d marks: %v, %v; want balance 5", i+1, st, err)
			}
		}
		horizon := db.HeadLSN()
		for i := 0; i < repeat; i++ {
			want := 2 // A and B
			if i > 0 {
				want = 0
			}
			if n := db.Compact(horizon); n != want {
				t.Fatalf("Compact %d at horizon %d archived %d, want %d", i+1, horizon, n, want)
			}
		}
		if repeat > 1 {
			// The mark once more, after the compaction dropped its record.
			if err := backend.AppendBatch([]Record{{Kind: storage.KindObsolete, Key: a, TxnID: "p1"}}); err != nil {
				t.Fatal(err)
			}
		}
		write(acct("C"), 2, "c1", false)
		logs = append(logs, backend)
	}
	recovered := func(backend storage.Backend) *DB {
		db, err := Recover(Options{Node: "test-node", Backend: backend}, accountType(), orderType())
		if err != nil {
			t.Fatalf("Recover: %v", err)
		}
		return db
	}
	once, twice := recovered(logs[0]), recovered(logs[1])
	assertIdenticalStores(t, once, twice)
	if st, _, err := twice.Current(a); err != nil || st.Float("balance") != 5 {
		t.Fatalf("A after replaying repeated marks: %v, %v; want balance 5", st, err)
	}
}
