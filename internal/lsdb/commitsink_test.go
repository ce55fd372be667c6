package lsdb

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/entity"
	"repro/internal/storage"
)

// sinkLog collects everything a commit sink receives, in order. Its capture
// phase records the batch; the returned wait reports the configured error, so
// the tests exercise both halves of the two-phase contract.
type sinkLog struct {
	mu    sync.Mutex
	recs  []Record
	err   error
	waits uint64 // how many wait functions were invoked
}

func (s *sinkLog) sink(recs []Record) func() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs = append(s.recs, recs...)
	return func() error {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.waits++
		return s.err
	}
}

func (s *sinkLog) all() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Record(nil), s.recs...)
}

// The sink sees exactly the backend's appends, in log order — a break
// settlement is one of them — and nothing else: a compaction's summary goes
// to the local log only. A sink that appends to a second log reproduces every
// append of the first.
func TestCommitSinkMirrorsBackend(t *testing.T) {
	backend := storage.NewMemory()
	var log sinkLog
	db := newTestDB(t, Options{Backend: backend, Shards: 1})
	db.SetCommitSink(log.sink)
	key := entity.Key{Type: "Account", ID: "A1"}
	if _, err := db.Append(key, []entity.Op{entity.Delta("balance", 10)}, stamp(1), "n", "t1"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AppendTentative(key, []entity.Op{entity.Delta("balance", 5)}, stamp(2), "n", "t2"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Append(key, []entity.Op{entity.BreakPromise("t2", "", "")}, stamp(3), "n", "t3"); err != nil {
		t.Fatal(err)
	}
	if n := db.Compact(db.HeadLSN()); n != 1 {
		t.Fatalf("Compact summarised %d entities, want 1", n)
	}

	var backendRecs []Record
	kinds := map[storage.RecordKind]int{}
	if _, err := backend.Replay(func(rec Record) error {
		kinds[rec.Kind]++
		if rec.Kind == storage.KindAppend {
			backendRecs = append(backendRecs, rec)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if kinds[storage.KindAppend] != 3 || kinds[storage.KindSummary] != 1 || len(kinds) != 2 {
		t.Fatalf("backend kinds = %v, want 3 appends and 1 compaction summary", kinds)
	}
	if got := log.all(); !reflect.DeepEqual(got, backendRecs) {
		t.Fatalf("sink saw %d records, backend holds %d appends:\nsink    %+v\nbackend %+v",
			len(got), len(backendRecs), got, backendRecs)
	}
}

// A sink failure must reach the writer — a synchronous replication mode that
// cannot reach its standbys fails the append — while the record stays
// committed locally (post-install indeterminacy, same as a backend error).
func TestCommitSinkErrorReachesWriterRecordStaysCommitted(t *testing.T) {
	log := sinkLog{err: errors.New("standby unreachable")}
	db := newTestDB(t, Options{})
	db.SetCommitSink(log.sink)
	key := entity.Key{Type: "Account", ID: "A1"}
	if _, err := db.Append(key, []entity.Op{entity.Delta("balance", 10)}, stamp(1), "n", "t1"); !errors.Is(err, log.err) {
		t.Fatalf("append with failing sink: err = %v, want wrapped sink error", err)
	}
	st, _, err := db.Current(key)
	if err != nil || st.Float("balance") != 10 {
		t.Fatalf("record not committed locally after sink failure: %v %v", st, err)
	}
}

// Recover must not re-ship: the replayed records went through the sink when
// they were first written, and a promoted standby replaying its received log
// must not try to replicate it back.
func TestCommitSinkSilentDuringRecover(t *testing.T) {
	backend := storage.NewMemory()
	db := newTestDB(t, Options{Backend: backend})
	key := entity.Key{Type: "Account", ID: "A1"}
	for i := 0; i < 5; i++ {
		if _, err := db.Append(key, []entity.Op{entity.Delta("balance", 1)}, stamp(int64(i+1)), "n", ""); err != nil {
			t.Fatal(err)
		}
	}
	var log sinkLog
	rec, err := Recover(Options{Node: "test-node", Backend: backend}, accountType(), orderType())
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	rec.SetCommitSink(log.sink)
	if got := log.all(); len(got) != 0 {
		t.Fatalf("sink received %d records during recovery, want 0", len(got))
	}
	// The sink sees post-recovery traffic.
	if _, err := rec.Append(key, []entity.Op{entity.Delta("balance", 1)}, stamp(10), "n", ""); err != nil {
		t.Fatal(err)
	}
	if got := log.all(); len(got) != 1 {
		t.Fatalf("sink received %d records after recovery, want 1", len(got))
	}
}

// The ack wait runs with no shard lock held: a wait that reads the store —
// as a replication barrier consulting watermarks might — must not deadlock
// against the shard lock its own commit cycle held during capture. A
// regression here hangs the test rather than failing an assert.
func TestCommitSinkWaitRunsOffShardLock(t *testing.T) {
	key := entity.Key{Type: "Account", ID: "A1"}
	var db *DB
	sink := func(recs []Record) func() error {
		return func() error {
			_, _, err := db.Current(key) // same shard as the commit
			return err
		}
	}
	db = newTestDB(t, Options{Shards: 1})
	db.SetCommitSink(sink)
	// A record and a promise, so the entity still exists once the promise
	// is broken; the settlement's wait runs off the lock like any append's.
	if _, err := db.Append(key, []entity.Op{entity.Delta("balance", 1)}, stamp(1), "n", "t1"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AppendTentative(key, []entity.Op{entity.Delta("balance", 1)}, stamp(1), "n", "t2"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Append(key, []entity.Op{entity.BreakPromise("t2", "", "")}, stamp(2), "n", "t3"); err != nil {
		t.Fatalf("break settlement: %v", err)
	}
}

// SetCommitSink late-binds the sink after Open, before the store is shared.
func TestSetCommitSinkAfterOpen(t *testing.T) {
	db := newTestDB(t, Options{})
	var log sinkLog
	db.SetCommitSink(log.sink)
	if _, err := db.Append(entity.Key{Type: "Account", ID: "A1"},
		[]entity.Op{entity.Delta("balance", 1)}, stamp(1), "n", ""); err != nil {
		t.Fatal(err)
	}
	if len(log.all()) != 1 {
		t.Fatal("late-bound sink not invoked")
	}
}
