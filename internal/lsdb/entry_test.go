package lsdb

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/entity"
	"repro/internal/storage"
)

// The exactly-once index lives in each entity's entry, beside the record
// list it is derived from. These tests pin that it is exact — below and above
// txnSpill retained records — and that it is
// bounded by, and always consistent with, the retained log. highwater_test.go
// covers which ids are answered by the high-water mark and which by a lookup.

func acct(id string) entity.Key { return entity.Key{Type: "Account", ID: id} }

func deposit(t *testing.T, db *DB, key entity.Key, n int, txnID string) error {
	t.Helper()
	_, err := db.Append(key, []entity.Op{entity.Delta("balance", 1)}, stamp(int64(n)), "n", txnID)
	return err
}

// assertTxnIndexMatchesLog checks every entry against the log it indexes:
// the LSNs in recs are exactly the entity's records in the log, the ids the
// index answers (from byTxn, once built) are exactly their transaction ids,
// LSN for LSN, and none of them is above the high-water mark.
func assertTxnIndexMatchesLog(t *testing.T, db *DB) {
	t.Helper()
	for _, s := range db.shards {
		s.mu.Lock() // txnLSNLocked may build byTxn
		for key, e := range s.entries.all() {
			want := map[string]uint64{}
			for _, lsn := range e.recs {
				rec, ok := s.recordLocked(lsn)
				if !ok {
					t.Errorf("%s lists LSN %d, which is not in the log", key, lsn)
					continue
				}
				if rec.Key != key || rec.LSN != lsn {
					t.Errorf("%s lists LSN %d, the log holds %s's LSN %d there", key, lsn, rec.Key, rec.LSN)
				}
				if rec.TxnID != "" {
					want[rec.TxnID] = lsn
				}
				if _, _, above := e.aboveMark(rec.TxnID, s.own); above {
					t.Errorf("%s: retained id %q is above the high-water mark %q %d", key, rec.TxnID, e.hiPrefix, e.hiSeq)
				}
			}
			if len(e.recs) == 0 && (e.byTxn != nil || e.ownSeq != 0 || e.hiPrefix != "" || e.hiSeq != 0) {
				t.Errorf("%s retains nothing, yet byTxn built: %v, marks %d, %q %d", key, e.byTxn != nil, e.ownSeq, e.hiPrefix, e.hiSeq)
			}
			if e.byTxn != nil {
				if len(e.byTxn) != len(want) {
					t.Errorf("%s: byTxn holds %d ids, the log %d", key, len(e.byTxn), len(want))
				}
				for id, lsn := range want {
					if e.byTxn[id] != lsn {
						t.Errorf("%s: byTxn[%s] = %d, want %d", key, id, e.byTxn[id], lsn)
					}
				}
			}
			for id, lsn := range want {
				if got, ok := s.txnLSNLocked(e, id); !ok || got != lsn {
					t.Errorf("%s: txnLSN(%s) = %d, %v; want %d", key, id, got, ok, lsn)
				}
			}
		}
		n := 0
		for c := s.cursorAfterLocked(0); c.valid(); c.next() {
			rec := s.decodeLocked(c.segment(), c.i)
			if rec.LSN != c.lsn() {
				t.Errorf("the log's LSN table says %d, its record %d", c.lsn(), rec.LSN)
			}
			if e := s.entry(rec.Key); e == nil || !slices.Contains(e.recs, rec.LSN) {
				t.Errorf("LSN %d of %s is in the log, its entity does not list it", rec.LSN, rec.Key)
			}
			n++
		}
		listed := 0
		for _, e := range s.entries.all() {
			listed += len(e.recs)
		}
		if listed != n {
			t.Errorf("shard logs %d records, its entries list %d", n, listed)
		}
		s.mu.Unlock()
	}
}

func TestDuplicateTxnRefusedBeforeAndAfterSpill(t *testing.T) {
	t.Run(perAppend, func(t *testing.T) {
		db := newTestDB(t, Options{})
		key := acct("hot")
		const total = 3 * txnSpill
		for i := 0; i < total; i++ {
			if err := deposit(t, db, key, i+1, fmt.Sprintf("t%d", i)); err != nil {
				t.Fatal(err)
			}
			// Every id written so far is refused, whichever shape holds it.
			for _, j := range []int{0, i / 2, i} {
				if err := deposit(t, db, key, 99, fmt.Sprintf("t%d", j)); !errors.Is(err, ErrDuplicateTxn) {
					t.Fatalf("after %d appends, resubmitting t%d: err = %v, want ErrDuplicateTxn", i+1, j, err)
				}
			}
			assertTxnIndexMatchesLog(t, db)
		}
		st, head, err := db.Current(key)
		if err != nil || st.Float("balance") != total || head != total {
			t.Fatalf("balance %v at LSN %d (%v), want %d at %d: a refused duplicate was applied or logged", st.Float("balance"), head, err, total, total)
		}
	})
}

func TestMarkObsoleteFindsTxnOnSpilledEntity(t *testing.T) {
	db := newTestDB(t, Options{})
	key := acct("promises")
	for i := 0; i < 2*txnSpill; i++ {
		var err error
		if i == 3 || i == 2*txnSpill-1 {
			_, err = db.AppendTentative(key, []entity.Op{entity.Delta("balance", 100)}, stamp(int64(i+1)), "n", fmt.Sprintf("p%d", i))
		} else {
			err = deposit(t, db, key, i+1, fmt.Sprintf("t%d", i))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"p3", fmt.Sprintf("p%d", 2*txnSpill-1)} {
		if err := db.MarkObsolete(key, id); err != nil {
			t.Fatalf("MarkObsolete(%s): %v", id, err)
		}
	}
	if err := db.MarkObsolete(key, "never-written"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("MarkObsolete of an unknown txn: %v, want ErrNotFound", err)
	}
	st, _, err := db.Current(key)
	if err != nil || st.Float("balance") != 2*txnSpill-2 {
		t.Fatalf("balance %v (%v), want %d: both promises withdrawn, nothing else", st.Float("balance"), err, 2*txnSpill-2)
	}
	// A withdrawn promise's id stays taken: its record is still in the log.
	if err := deposit(t, db, key, 99, "p3"); !errors.Is(err, ErrDuplicateTxn) {
		t.Fatalf("resubmitting a withdrawn promise's id: %v, want ErrDuplicateTxn", err)
	}
	assertTxnIndexMatchesLog(t, db)
}

// What bounds the index: ids go with the records they point at. Compact
// drops both for an entity it summarises and neither for one it keeps;
// Recover and Load rebuild exactly what the log retains.
func TestTxnIndexBoundedByRetainedRecords(t *testing.T) {
	backend := storage.NewMemory()
	db := newTestDB(t, Options{Backend: backend})
	settled, active := acct("settled"), acct("active")
	n := 0
	write := func(key entity.Key, id string) {
		t.Helper()
		n++
		if err := deposit(t, db, key, n, id); err != nil {
			t.Fatalf("append %s: %v", id, err)
		}
	}
	for i := 0; i < 2*txnSpill; i++ {
		write(settled, fmt.Sprintf("s%d", i))
		write(active, fmt.Sprintf("a%d", i))
	}
	horizon := db.HeadLSN() - 1 // the newest record, one of active's, is above it
	db.Compact(horizon)

	check := func(db *DB, stage string) {
		t.Helper()
		assertTxnIndexMatchesLog(t, db)
		s := db.shardFor(settled)
		if e := s.entry(settled); len(e.recs) != 0 || e.byTxn != nil || e.archived == nil {
			t.Fatalf("%s: summarised entity keeps %d record refs, byTxn %v, archived %v", stage, len(e.recs), e.byTxn != nil, e.archived != nil)
		}
		if got := len(db.shardFor(active).entry(active).recs); got != 2*txnSpill {
			t.Fatalf("%s: kept entity lists %d records, want %d", stage, got, 2*txnSpill)
		}
		if err := deposit(t, db, active, 999, "a0"); !errors.Is(err, ErrDuplicateTxn) {
			t.Fatalf("%s: kept entity accepted a duplicate: %v", stage, err)
		}
	}
	check(db, "after Compact")

	// The summarised entity's ids went with its records: a resubmission is a
	// new write (and is indexed again from here on).
	write(settled, "s0")
	if err := deposit(t, db, settled, 999, "s0"); !errors.Is(err, ErrDuplicateTxn) {
		t.Fatalf("id written after the compaction not refused: %v", err)
	}
	st, _, _ := db.Current(settled)
	if st.Float("balance") != 2*txnSpill+1 {
		t.Fatalf("settled balance %v, want %d", st.Float("balance"), 2*txnSpill+1)
	}

	// Recover replays the same log, compaction mark included.
	rec, err := Recover(Options{Node: "test-node", Backend: backend}, accountType(), orderType())
	if err != nil {
		t.Fatal(err)
	}
	assertTxnIndexMatchesLog(t, rec)
	for _, c := range []struct {
		key entity.Key
		id  string
	}{{active, "a0"}, {active, fmt.Sprintf("a%d", 2*txnSpill-1)}, {settled, "s0"}} {
		if err := deposit(t, rec, c.key, 999, c.id); !errors.Is(err, ErrDuplicateTxn) {
			t.Fatalf("after Recover, %s on %s: %v, want ErrDuplicateTxn", c.id, c.key, err)
		}
	}
	if err := deposit(t, rec, settled, 999, "s5"); err != nil {
		t.Fatalf("after Recover, an id compacted away was refused: %v", err)
	}

	// Load rebuilds from the exported stream the same way.
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded := newTestDB(t, Options{})
	if err := loaded.Load(&buf); err != nil {
		t.Fatal(err)
	}
	assertTxnIndexMatchesLog(t, loaded)
	if err := deposit(t, loaded, active, 999, "a3"); !errors.Is(err, ErrDuplicateTxn) {
		t.Fatalf("after Load: %v, want ErrDuplicateTxn", err)
	}
}

// Cold eviction only ever takes entries that retain no records, so there is
// no index to lose; a write re-warms the summary and is indexed as usual.
func TestTxnIndexAcrossColdEvictionAndRewarm(t *testing.T) {
	db := newTestDB(t, Options{Shards: 2, Backend: openTestTiered(t, t.TempDir(), nil)})
	defer db.Close()
	key := acct("cold")
	for i := 0; i < 2*txnSpill; i++ {
		if err := deposit(t, db, key, i+1, fmt.Sprintf("t%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	db.Compact(db.HeadLSN())
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s := db.shardFor(key)
	// The materialised state is gone with the compaction; nothing pins it.
	if e := s.entry(key); !e.cold || e.archived != nil || len(e.recs) != 0 || e.byTxn != nil {
		t.Fatalf("not evicted: cold=%v archived=%v recs=%d byTxn=%v", e.cold, e.archived != nil, len(e.recs), e.byTxn != nil)
	}
	if err := deposit(t, db, key, 100, "after"); err != nil {
		t.Fatalf("write to an evicted entity: %v", err)
	}
	if e := s.entry(key); e.cold || e.archived == nil {
		t.Fatalf("write did not warm the summary: cold=%v archived=%v", e.cold, e.archived != nil)
	}
	if err := deposit(t, db, key, 101, "after"); !errors.Is(err, ErrDuplicateTxn) {
		t.Fatalf("duplicate after the re-warm: %v, want ErrDuplicateTxn", err)
	}
	st, _, err := db.Current(key)
	if err != nil || st.Float("balance") != 2*txnSpill+1 {
		t.Fatalf("balance %v (%v), want %d", st.Float("balance"), err, 2*txnSpill+1)
	}
	assertTxnIndexMatchesLog(t, db)
}

// shardShape is what a refused append must leave exactly as it found it.
type shardShape struct {
	sealed, active, bytes, entries int
	recs                           map[entity.Key]int
	head                           uint64
}

func shapeOf(db *DB) shardShape {
	sh := shardShape{recs: map[entity.Key]int{}, head: db.HeadLSN()}
	for _, s := range db.shards {
		s.mu.RLock()
		sh.sealed += len(s.sealed)
		sh.active += s.active.len()
		sh.bytes += len(s.active.buf)
		sh.entries += s.entries.len()
		for k, e := range s.entries.all() {
			sh.recs[k] = len(e.recs)
		}
		// No commit cycle's records may be left behind in the scratch.
		for _, r := range s.cycle[:cap(s.cycle)] {
			if r.Key != (entity.Key{}) || r.Ops != nil || r.TxnID != "" {
				panic(fmt.Sprintf("the cycle scratch still holds %+v", r))
			}
		}
		s.mu.RUnlock()
	}
	return sh
}

func TestRefusedAppendLeavesShardUntouched(t *testing.T) {
	t.Run(perAppend, func(t *testing.T) {
		fb := storage.NewFaultBackend(storage.NewMemory())
		// A tiny segment, so the refused append is also one that had to
		// open a new segment for its slot.
		db := newTestDB(t, Options{Backend: fb, Shards: 1, SegmentSize: 4, RearmAfter: time.Nanosecond})
		known := acct("known")
		for i := 0; i < txnSpill+4; i++ {
			if err := deposit(t, db, known, i+1, fmt.Sprintf("t%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		before := shapeOf(db)
		fb.FailAppends(2)
		for _, key := range []entity.Key{known, acct("never-seen")} {
			if err := deposit(t, db, key, 50, "refused"); !errors.Is(err, ErrDegraded) {
				t.Fatalf("append to %s against a full disk: %v, want ErrDegraded", key, err)
			}
			time.Sleep(time.Millisecond) // past RearmAfter: the next append probes
		}
		if after := shapeOf(db); fmt.Sprint(after) != fmt.Sprint(before) {
			t.Fatalf("a refused append changed the shard:\nbefore %+v\nafter  %+v", before, after)
		}
		if db.Exists(acct("never-seen")) || len(db.KeysOfType(known.Type)) != 1 {
			t.Fatalf("refused first write left its entity behind: keys %v", db.KeysOfType(known.Type))
		}
		assertTxnIndexMatchesLog(t, db)
		// The id was never taken, the LSN never consumed.
		res, err := db.Append(known, []entity.Op{entity.Delta("balance", 1)}, stamp(60), "n", "refused")
		if err != nil || res.Record.LSN != before.head+1 {
			t.Fatalf("append after the disk healed: LSN %v, err %v; want LSN %d", res.Record, err, before.head+1)
		}
		assertTxnIndexMatchesLog(t, db)
	})
}

// appendsPerBudgetRun is how many appends one budget measurement makes.
const appendsPerBudgetRun = 512

// Budgets for one single-op append to an existing entity. To a state nobody
// was lent it allocates the boxed new value and nothing for the state — no
// State, no field map; the record's share of its segment and the growth of
// the entity's record list are amortised to a few hundredths of one
// allocation (1.03 measured), and the rest is slack. To a state that was
// lent it allocates the copy as well: the State, its field map's header and
// one group (4.03).
const (
	appendAllocBudgetUnlent = 2.0
	appendAllocBudgetLent   = 5.0
	appendLookupBudget      = 1.0
)

// appendLoop makes one single-op append per id, round-robin over keys (all
// existing entities; each soon retains more than txnSpill records, as a hot
// entity does in production). With readEvery > 0 every readEvery-th append
// is preceded by a read of its entity, which lends the cached state.
func appendLoop(tb testing.TB, db *DB, keys []entity.Key, ids []string, readEvery int) {
	ops := []entity.Op{entity.Delta("balance", 1)}
	for i, id := range ids {
		key := keys[i%len(keys)]
		if readEvery > 0 && i%readEvery == 0 {
			if _, _, err := db.Current(key); err != nil {
				tb.Fatal(err)
			}
		}
		if _, err := db.Append(key, ops, stamp(int64(i)), "n", id); err != nil {
			tb.Fatal(err)
		}
	}
}

// txnIDs returns n transaction ids not returned before, of the shape and in
// the order one unit's txn.Manager mints them.
func txnIDs(next *int, n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("n-txn-%d", *next)
		*next++
	}
	return ids
}

func budgetKeys(n int) []entity.Key {
	keys := make([]entity.Key, n)
	for i := range keys {
		keys[i] = acct(fmt.Sprintf("k%03d", i))
	}
	return keys
}

// BenchmarkAppendExistingEntity is the store's share of a process step: one
// single-op Append to an existing entity, in memory — to entities nobody
// reads (every append in place), and with a read before every eighth append
// (that one copies).
func BenchmarkAppendExistingEntity(b *testing.B) {
	for _, readEvery := range []int{0, 8} {
		name := "mem/never-read"
		if readEvery > 0 {
			name = fmt.Sprintf("mem/read-every-%d", readEvery)
		}
		b.Run(name, func(b *testing.B) {
			db := newTestDB(b, Options{})
			keys, next := budgetKeys(256), 0
			appendLoop(b, db, keys, txnIDs(&next, len(keys)), 0)
			ids := txnIDs(&next, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			appendLoop(b, db, keys, ids, readEvery)
		})
	}
}

// TestAppendBudget is BenchmarkAppendExistingEntity's gate: allocations per
// append — none of them a State or a field map when the cached state was
// never lent — and entry-map lookups per append (one entity.Key hash; the
// shard choice hashes the key text, not the Key).
func TestAppendBudget(t *testing.T) {
	for _, lent := range []bool{false, true} {
		t.Run(fmt.Sprintf(perAppend+"/lent=%v", lent), func(t *testing.T) {
			db := newTestDB(t, Options{})
			keys, next := budgetKeys(64), 0
			readEvery, allocBudget := 0, appendAllocBudgetUnlent
			if lent {
				readEvery, allocBudget = 1, appendAllocBudgetLent
			}
			// First touches and segment allocation stay out.
			appendLoop(t, db, keys, txnIDs(&next, appendsPerBudgetRun), 0)

			var lookups atomic.Uint64
			for _, s := range db.shards {
				s.lookups = &lookups
			}
			appendLoop(t, db, keys, txnIDs(&next, appendsPerBudgetRun), 0)
			for _, s := range db.shards {
				s.lookups = nil
			}
			if per := float64(lookups.Load()) / appendsPerBudgetRun; per > appendLookupBudget {
				t.Errorf("an append looks its entity up %.2f times, budget %.0f", per, appendLookupBudget)
			}

			const runs = 5
			ids := txnIDs(&next, (runs+1)*appendsPerBudgetRun) // AllocsPerRun warms up once
			perRun := testing.AllocsPerRun(runs, func() {
				appendLoop(t, db, keys, ids[:appendsPerBudgetRun], readEvery)
				ids = ids[appendsPerBudgetRun:]
			})
			per := perRun / appendsPerBudgetRun
			t.Logf("an append allocates %.2f times", per)
			if per > allocBudget {
				t.Errorf("an append allocates %.2f times, budget %.1f", per, allocBudget)
			}
		})
	}
}
