package lsdb

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/entity"
	"repro/internal/lsm"
	"repro/internal/storage"
)

// openTestTiered builds the production stack for tests: a segmented WAL with
// small segments wrapped in an LSM store with a quiet auto-compactor (tests
// drive CompactNow explicitly).
func openTestTiered(t testing.TB, dir string, hooks *lsm.Hooks) *lsm.Store {
	t.Helper()
	wal := openTestWAL(t, dir, storage.SyncOS)
	s, err := lsm.Open(wal, lsm.Options{Dir: filepath.Join(dir, "sst"), CompactAfter: 100, Hooks: hooks})
	if err != nil {
		t.Fatalf("lsm.Open: %v", err)
	}
	return s
}

// assertTieredStates compares two stores by observable state: key set and
// every entity's fields, flags and child rows. Unlike assertIdenticalStores
// it does not compare record logs — a flushed store legitimately retains
// fewer raw records than the one that wrote them (settled history lives in
// table summaries, not the log).
func assertTieredStates(t *testing.T, want, got *DB) {
	t.Helper()
	wantKeys, gotKeys := allKeys(want), allKeys(got)
	if !reflect.DeepEqual(wantKeys, gotKeys) {
		t.Fatalf("key sets differ: %v vs %v", wantKeys, gotKeys)
	}
	if want.HeadLSN() != got.HeadLSN() {
		t.Fatalf("LSN watermark differs: %d vs %d", want.HeadLSN(), got.HeadLSN())
	}
	for _, key := range wantKeys {
		sw, _, errW := want.Current(key)
		sg, _, errG := got.Current(key)
		if errW != nil || errG != nil {
			t.Fatalf("Current(%s): %v / %v", key, errW, errG)
		}
		if !reflect.DeepEqual(sw.Fields, sg.Fields) {
			t.Fatalf("%s: fields differ:\nwant %v\n got %v", key, sw.Fields, sg.Fields)
		}
		if sw.Tentative != sg.Tentative || sw.Deleted != sg.Deleted {
			t.Fatalf("%s: flags differ", key)
		}
		for _, col := range sw.Collections() {
			if !reflect.DeepEqual(sw.Children(col), sg.Children(col)) {
				t.Fatalf("%s.%s: rows differ:\nwant %v\n got %v", key, col, sw.Children(col), sg.Children(col))
			}
		}
	}
}

// warmEverything reads every key once so the source store's post-flush cold
// pointers are rehydrated before its backend closes; comparisons afterwards
// run purely in memory.
func warmEverything(t *testing.T, db *DB) {
	t.Helper()
	for _, key := range allKeys(db) {
		if _, _, err := db.Current(key); err != nil {
			t.Fatalf("warm %s: %v", key, err)
		}
	}
}

// TestTieredFlushRecoverRoundTrip is the tiered analogue of the core recovery
// round trip: a concurrent multi-writer workload with background flushes
// forced mid-run (tiny byte trigger), a final explicit flush, then recovery
// through table pointers plus the WAL tail. Run under -race in CI.
func TestTieredFlushRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db := newTestDB(t, Options{
		Shards: 4, SnapshotEvery: 8,
		Backend: openTestTiered(t, dir, nil), FlushBytes: 4096,
	})
	runScriptsConcurrent(t, db, buildScripts(41, 8, 40, 3))
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	// Post-flush traffic becomes the WAL tail recovery must graft on top.
	for i := 0; i < 20; i++ {
		k := entity.Key{Type: "Account", ID: fmt.Sprintf("tail%d", i%4)}
		if _, err := db.Append(k, []entity.Op{entity.Delta("balance", 1)}, stamp(int64(1000+i)), "n", ""); err != nil {
			t.Fatal(err)
		}
	}
	if fs := db.FlushStats(); fs.Flushes == 0 {
		t.Fatalf("no flush recorded: %+v", fs)
	}
	warmEverything(t, db)
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	rec, err := Recover(Options{Node: "test-node", Shards: 2, SnapshotEvery: 8,
		Backend: openTestTiered(t, dir, nil)}, accountType(), orderType())
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	assertTieredStates(t, db, rec)
	// The recovered store continues the log.
	head := rec.HeadLSN()
	res, err := rec.Append(entity.Key{Type: "Account", ID: "post"}, []entity.Op{entity.Delta("balance", 1)}, stamp(1), "test-node", "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Record.LSN != head+1 {
		t.Fatalf("append after recover got LSN %d, want %d", res.Record.LSN, head+1)
	}
	rec.Close()
}

// TestTieredObsoleteAfterFlush pins the settled-horizon guarantee: a live
// tentative promise blocks the horizon, so when its MarkObsolete lands in the
// WAL tail after the flush, recovery still finds the promise to withdraw.
func TestTieredObsoleteAfterFlush(t *testing.T) {
	dir := t.TempDir()
	db := newTestDB(t, Options{Shards: 2, Backend: openTestTiered(t, dir, nil)})
	k := entity.Key{Type: "Account", ID: "hot"}
	if _, err := db.Append(k, []entity.Op{entity.Delta("balance", 5)}, stamp(1), "n", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AppendTentative(k, []entity.Op{entity.Delta("balance", 500)}, stamp(2), "n", "promise-1"); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The withdrawal reaches only the WAL tail; the promise itself is table
	// detail above the flushed horizon.
	if err := db.MarkObsolete(k, "promise-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Append(k, []entity.Op{entity.Delta("balance", 1)}, stamp(3), "n", ""); err != nil {
		t.Fatal(err)
	}
	warmEverything(t, db)
	db.Close()

	rec, err := Recover(Options{Node: "test-node", Shards: 2, Backend: openTestTiered(t, dir, nil)},
		accountType(), orderType())
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := rec.Current(k)
	if err != nil {
		t.Fatal(err)
	}
	if st.Fields["balance"] != 6.0 {
		t.Fatalf("balance = %v after recovery, want 6 (withdrawn promise resurrected?)", st.Fields["balance"])
	}
	rec.Close()
}

// TestFlushReleasesSettledStates: a flush lets go of the cached states it
// settled into its table — a reader's earlier state stays as it was, and the
// next read rebuilds an equal one from the resident records — while an
// entity whose live promise keeps detail above the settled horizon keeps its
// cached state.
func TestFlushReleasesSettledStates(t *testing.T) {
	dir := t.TempDir()
	db := newTestDB(t, Options{Shards: 2, SnapshotEvery: 4, Backend: openTestTiered(t, dir, nil)})
	defer db.Close()
	settled, pending := acct("settled"), acct("pending")
	for i := 0; i < 6; i++ {
		if _, err := db.Append(settled, []entity.Op{entity.Delta("balance", 1)}, stamp(int64(i+1)), "n", ""); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Append(pending, []entity.Op{entity.Delta("balance", 5)}, stamp(7), "n", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AppendTentative(pending, []entity.Op{entity.Delta("balance", 500)}, stamp(8), "n", "promise-1"); err != nil {
		t.Fatal(err)
	}
	lent, head, err := db.Current(settled)
	if err != nil {
		t.Fatal(err)
	}
	cached := func(k entity.Key) bool {
		s := db.shardFor(k)
		s.mu.RLock()
		defer s.mu.RUnlock()
		return s.entry(k).cache.present()
	}
	if !cached(settled) || !cached(pending) {
		t.Fatal("states not cached before the flush")
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if cached(settled) {
		t.Error("the flush kept the settled entity's cached state")
	}
	if !cached(pending) {
		t.Error("the flush dropped the cached state of an entity with a live promise")
	}
	want := entity.Fields{"balance": 6.0}
	if !reflect.DeepEqual(lent.Fields, want) {
		t.Errorf("the reader's lent state changed: %v", lent.Fields)
	}
	again, againHead, err := db.Current(settled)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Fields, want) || againHead != head || again.Tentative != lent.Tentative {
		t.Errorf("rebuilt state %v at %d, want %v at %d", again.Fields, againHead, want, head)
	}
	if _, err := db.Append(settled, []entity.Op{entity.Delta("balance", 1)}, stamp(9), "n", ""); err != nil {
		t.Fatal(err)
	}
	if st, _, err := db.Current(settled); err != nil || st.Fields["balance"] != 7.0 {
		t.Errorf("after a write past the flush: %v, %v", st, err)
	}
	if !reflect.DeepEqual(lent.Fields, want) || !reflect.DeepEqual(again.Fields, want) {
		t.Errorf("a write changed states lent before it: %v, %v", lent.Fields, again.Fields)
	}
}

// TestColdEvictionAndWarm: archived-and-settled entities leave memory after a
// flush, stay enumerable, and warm transparently through the bloom-guided
// table lookup on the next read.
func TestColdEvictionAndWarm(t *testing.T) {
	dir := t.TempDir()
	db := newTestDB(t, Options{Shards: 2, DisableStateCache: true, Backend: openTestTiered(t, dir, nil)})
	const keys = 12
	for i := 0; i < keys; i++ {
		k := entity.Key{Type: "Account", ID: fmt.Sprintf("c%02d", i)}
		for j := 0; j < 3; j++ {
			if _, err := db.Append(k, []entity.Op{entity.Delta("balance", 1)}, stamp(int64(i*3+j+1)), "n", ""); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Archive everything (Compact folds settled history into summaries and
	// empties the per-key index), then flush: every summary is now durable in
	// a table and eligible for eviction.
	db.Compact(db.HeadLSN() + 1)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fs := db.FlushStats()
	if fs.Evicted == 0 {
		t.Fatalf("nothing evicted: %+v", fs)
	}
	if got := len(allKeys(db)); got != keys {
		t.Fatalf("cold keys fell out of keys(): %d, want %d", got, keys)
	}
	if !db.Exists(entity.Key{Type: "Account", ID: "c00"}) {
		t.Fatal("cold key not Exists()")
	}
	st, _, err := db.Current(entity.Key{Type: "Account", ID: "c03"})
	if err != nil {
		t.Fatalf("cold read: %v", err)
	}
	if st.Fields["balance"] != 3.0 {
		t.Fatalf("cold read balance = %v, want 3", st.Fields["balance"])
	}
	if fs := db.FlushStats(); fs.ColdReads == 0 {
		t.Fatalf("cold read not counted: %+v", fs)
	}
	db.Close()
}

// TestCheckpointFailureBreadcrumb is the satellite fix for the silent-retry
// gap: failed flush passes count, carry a typed reason, never refuse writes,
// and the breadcrumb clears on the next success.
func TestCheckpointFailureBreadcrumb(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("sidecar volume detached")
	armed := true
	hooks := &lsm.Hooks{FlushErr: func() error {
		if armed {
			return boom
		}
		return nil
	}}
	db := newTestDB(t, Options{Shards: 2, Backend: openTestTiered(t, dir, hooks)})
	k := entity.Key{Type: "Account", ID: "a"}
	if _, err := db.Append(k, []entity.Op{entity.Delta("balance", 1)}, stamp(1), "n", ""); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); !errors.Is(err, boom) {
		t.Fatalf("Checkpoint = %v, want injected failure", err)
	}
	failures, reason, err := checkpointFailure(db)
	if failures != 1 || reason == "" || err == nil {
		t.Fatalf("checkpoint failure = (%d, %q, %v), want a counted, typed failure", failures, reason, err)
	}
	// A failed flush degrades persistence, not availability.
	if _, err := db.Append(k, []entity.Op{entity.Delta("balance", 1)}, stamp(2), "n", ""); err != nil {
		t.Fatalf("append refused after flush failure: %v", err)
	}
	armed = false
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("recovered flush failed: %v", err)
	}
	failures, reason, err = checkpointFailure(db)
	if failures != 1 || reason != "" || err != nil {
		t.Fatalf("breadcrumb not cleared after success: (%d, %q, %v)", failures, reason, err)
	}
	warmEverything(t, db)
	db.Close()
}

// checkpointFailure is the automatic-persistence failure breadcrumb as
// FlushStats and BackendErr report it: how many flushes failed since open,
// the typed reason of the most recent failure ("" once a later pass
// succeeded), and its error.
func checkpointFailure(db *DB) (failures uint64, reason string, err error) {
	fs := db.FlushStats()
	return fs.Failures, fs.Reason, db.BackendErr()
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestFailedFlushRetriesOnNextCommit: a failed automatic flush restores the
// trigger backlog it captured, so the very next commit re-fires the flush —
// instead of waiting for an entire fresh trigger's worth of commits, which on
// a then-idle store would mean the flush is never retried and the WAL never
// pruned until an explicit Checkpoint.
func TestFailedFlushRetriesOnNextCommit(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("flush volume detached")
	var armed atomic.Bool
	armed.Store(true)
	hooks := &lsm.Hooks{FlushErr: func() error {
		if armed.Load() {
			return boom
		}
		return nil
	}}
	db := newTestDB(t, Options{Shards: 2, Backend: openTestTiered(t, dir, hooks), CheckpointEvery: 4})
	defer db.Close()
	k := entity.Key{Type: "Account", ID: "retry"}
	for i := 0; i < 4; i++ {
		if _, err := db.Append(k, []entity.Op{entity.Delta("balance", 1)}, stamp(int64(i+1)), "n", ""); err != nil {
			t.Fatal(err)
		}
	}
	// The 4th commit crossed the record trigger and armed a background flush;
	// wait for its injected failure to be counted.
	waitUntil(t, "failed flush breadcrumb", func() bool {
		failures, _, _ := checkpointFailure(db)
		return failures >= 1
	})
	if got := db.sinceCkpt.Load(); got < 4 {
		t.Fatalf("record-trigger backlog after failed flush = %d, want the captured 4 restored", got)
	}
	armed.Store(false)
	// One commit — not a whole new trigger's worth — must re-fire the flush.
	if _, err := db.Append(k, []entity.Op{entity.Delta("balance", 1)}, stamp(5), "n", ""); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "flush retry after re-arm", func() bool {
		return db.FlushStats().Flushes >= 1
	})
}

// TestAsOfAndHistoryAcrossFlush: point-in-time reads above the flushed
// horizon keep working from retained detail after flush and recovery.
func TestAsOfAndHistoryAcrossFlush(t *testing.T) {
	dir := t.TempDir()
	db := newTestDB(t, Options{Shards: 2, Backend: openTestTiered(t, dir, nil)})
	k := entity.Key{Type: "Account", ID: "h"}
	for i := 0; i < 4; i++ {
		if _, err := db.Append(k, []entity.Op{entity.Delta("balance", 1)}, stamp(int64(i+1)), "n", ""); err != nil {
			t.Fatal(err)
		}
	}
	// A live promise pins the horizon below it: the settled prefix summarises,
	// the promise and everything after stay replayable detail.
	if _, err := db.AppendTentative(k, []entity.Op{entity.Delta("balance", 100)}, stamp(5), "n", "p1"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Append(k, []entity.Op{entity.Delta("balance", 1)}, stamp(6), "n", ""); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	rec, err := Recover(Options{Node: "test-node", Shards: 2, Backend: openTestTiered(t, dir, nil)},
		accountType(), orderType())
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	st, err := rec.AsOf(k, stamp(1000))
	if err != nil {
		t.Fatalf("AsOf(now): %v", err)
	}
	if st.Fields["balance"] != 105.0 {
		t.Fatalf("AsOf(now) balance = %v, want 105", st.Fields["balance"])
	}
	hist, err := rec.History(k)
	if err != nil {
		t.Fatal(err)
	}
	// The settled prefix (LSNs 1-4) lives in the summary; retained history is
	// the promise and the record after it.
	if len(hist.Versions) != 2 {
		t.Fatalf("retained history %d versions, want 2", len(hist.Versions))
	}
}
