package lsdb

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/entity"
	"repro/internal/storage"
)

// Exactly-once across the high-water mark (entry.aboveMark): an id above the
// mark is new with no lookup, every other id is looked up exactly, and the
// two agree with what the retained log holds whatever built the entry — live
// appends, a group-commit batch, Compact, Recover, a shipped log, a re-warm
// after cold eviction.

func TestSplitTxnID(t *testing.T) {
	for _, c := range []struct {
		id, prefix string
		seq        uint64
		ok         bool
	}{
		{"n1-txn-42", "n1-txn-", 42, true},
		{"t0", "t", 0, true},
		{"n1-txn-007", "n1-txn-", 7, true},
		{"a-9999999999999999999", "a-", 9999999999999999999, true}, // 19 digits
		{"a-10000000000000000000", "", 0, false},                   // 20: could overflow
		{"42", "", 0, false},                                       // no prefix
		{"client-abc", "", 0, false},
		{"n1-txn-42/step#0", "n1-txn-42/step#", 0, true},
		{"", "", 0, false},
	} {
		prefix, seq, ok := splitTxnID(c.id)
		if prefix != c.prefix || seq != c.seq || ok != c.ok {
			t.Errorf("splitTxnID(%q) = %q, %d, %v; want %q, %d, %v", c.id, prefix, seq, ok, c.prefix, c.seq, c.ok)
		}
	}
}

// exerciseExactlyOnce runs the whole matrix against one entity of db, with
// ids numbered from base so stages do not collide: what was applied is
// refused, by the mark or by lookup, and what was not is accepted once.
func exerciseExactlyOnce(t *testing.T, db *DB, key entity.Key, base int, stage string) {
	t.Helper()
	mine := func(n int) string { return fmt.Sprintf("n1-txn-%d", base+n) }
	foreign, client := fmt.Sprintf("n2-txn-%d", base+3), fmt.Sprintf("client-%d-abc", base)
	put := func(id string) error { return deposit(t, db, key, base, id) }
	// 5, 9, then 7: minted earlier, committed later — below the mark, fresh.
	applied := []string{mine(5), mine(9), mine(7), foreign, client}
	for _, id := range applied {
		if err := put(id); err != nil {
			t.Fatalf("%s: first write of %s: %v", stage, id, err)
		}
	}
	for _, id := range applied {
		if err := put(id); !errors.Is(err, ErrDuplicateTxn) {
			t.Fatalf("%s: resubmitting %s: %v, want ErrDuplicateTxn", stage, id, err)
		}
	}
	// Below the mark and never applied; then it is applied.
	if err := put(mine(6)); err != nil {
		t.Fatalf("%s: a fresh id below the mark was refused: %v", stage, err)
	}
	if err := put(mine(6)); !errors.Is(err, ErrDuplicateTxn) {
		t.Fatalf("%s: resubmitting it: %v, want ErrDuplicateTxn", stage, err)
	}
	assertTxnIndexMatchesLog(t, db)
}

func balanceOf(t *testing.T, db *DB, key entity.Key) float64 {
	t.Helper()
	st, _, err := db.Current(key)
	if err != nil {
		t.Fatal(err)
	}
	return st.Float("balance")
}

func TestExactlyOnceAcrossHighWaterMark(t *testing.T) {
	const perStage = 6 // writes exerciseExactlyOnce lands
	for _, group := range []bool{false, true} {
		t.Run(fmt.Sprintf("group=%v", group), func(t *testing.T) {
			backend := storage.NewMemory()
			db := newTestDB(t, Options{Backend: backend, GroupCommit: group})
			key, other := acct("hot"), acct("other")
			if err := deposit(t, db, other, 1, "n1-txn-90"); err != nil {
				t.Fatal(err)
			}
			// Enough serial history that a lookup means a map, not a scan.
			for i := 1; i <= 2*txnSpill; i++ {
				if err := deposit(t, db, key, i, fmt.Sprintf("n1-txn-%d", i)); err != nil {
					t.Fatal(err)
				}
			}
			if e := db.shardFor(key).entries[key]; e.byTxn != nil || e.hiSeq != 2*txnSpill {
				t.Fatalf("serial writes built byTxn (%v) or missed the mark (%d)", e.byTxn != nil, e.hiSeq)
			}
			exerciseExactlyOnce(t, db, key, 100, "live")

			// Compact below the entity's head keeps its records, ids and all.
			db.Compact(db.HeadLSN() - 1)
			if e := db.shardFor(other).entries[other]; e.archived == nil || len(e.recs) != 0 {
				t.Fatal("setup: nothing was compacted")
			}
			exerciseExactlyOnce(t, db, key, 200, "after Compact")

			// Recover rebuilds entry, mark and all from the WAL.
			rec, err := Recover(Options{Node: "test-node", Backend: backend, GroupCommit: group}, accountType(), orderType())
			if err != nil {
				t.Fatal(err)
			}
			if e := rec.shardFor(key).entries[key]; e.hiPrefix != "n1-txn-" || e.hiSeq != 209 {
				t.Fatalf("recovered mark %q %d, want n1-txn- 209", e.hiPrefix, e.hiSeq)
			}
			for _, id := range []string{"n1-txn-1", "n1-txn-105", "n1-txn-209", "n2-txn-203", "client-100-abc"} {
				if err := deposit(t, rec, key, 999, id); !errors.Is(err, ErrDuplicateTxn) {
					t.Fatalf("after Recover, %s: %v, want ErrDuplicateTxn", id, err)
				}
			}
			exerciseExactlyOnce(t, rec, key, 300, "after Recover")

			// A standby's received log, fed the same records chunk by chunk,
			// then recovered as promotion does.
			received := storage.NewMemory()
			shipped := db.RecordsFor(key)
			for len(shipped) > 0 {
				n := min(5, len(shipped))
				if err := received.AppendBatch(shipped[:n]); err != nil {
					t.Fatal(err)
				}
				shipped = shipped[n:]
			}
			standby, err := Recover(Options{Node: "test-node", Backend: received, GroupCommit: group}, accountType(), orderType())
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range []string{"n1-txn-1", "n1-txn-107", "n1-txn-209", "n2-txn-103", "client-200-abc"} {
				if err := deposit(t, standby, key, 999, id); !errors.Is(err, ErrDuplicateTxn) {
					t.Fatalf("after shipping, %s: %v, want ErrDuplicateTxn", id, err)
				}
			}
			exerciseExactlyOnce(t, standby, key, 400, "after shipping")

			if got, want := balanceOf(t, db, key), float64(2*txnSpill+2*perStage); got != want {
				t.Fatalf("balance %v, want %v: a refused duplicate was applied, or a fresh id was not", got, want)
			}
		})
	}
}

// Cold eviction takes the ids with the records; after a re-warm the mark
// starts over with the first id written, and is exact from there.
func TestExactlyOnceAfterColdEvictionAndRewarm(t *testing.T) {
	db := newTestDB(t, Options{Shards: 2, Backend: openTestTiered(t, t.TempDir(), nil)})
	defer db.Close()
	key := acct("cold")
	for i := 1; i <= 2*txnSpill; i++ {
		if err := deposit(t, db, key, i, fmt.Sprintf("n1-txn-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	db.Compact(db.HeadLSN())
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if e := db.shardFor(key).entries[key]; !e.cold || e.hiPrefix != "" || e.hiSeq != 0 {
		t.Fatalf("not evicted, or the mark outlived the records: cold=%v mark %q %d", e.cold, e.hiPrefix, e.hiSeq)
	}
	exerciseExactlyOnce(t, db, key, 500, "after re-warm")
	if got := balanceOf(t, db, key); got != 2*txnSpill+6 {
		t.Fatalf("balance %v, want %d", got, 2*txnSpill+6)
	}
}

// Two equal ids in one group-commit batch are both above the mark when they
// are validated; the batch's own survivors settle it. Ids out of order in one
// batch leave the mark at the highest.
func TestHighWaterInsideOneBatch(t *testing.T) {
	db := newTestDB(t, Options{GroupCommit: true, Shards: 1})
	s := db.shards[0]
	typ, _ := db.TypeOf("Account")
	req := func(txnID string) *appendReq {
		return &appendReq{typ: typ, key: acct("a"), ops: []entity.Op{entity.Delta("balance", 1)}, stamp: stamp(1), origin: "n", txnID: txnID}
	}
	batch := []*appendReq{req("n1-txn-3"), req("n1-txn-8"), req("n1-txn-8"), req("n1-txn-5"), req("n1-txn-3")}
	live, _ := db.commitBatch(s, batch, nil)
	for i, wantDup := range []bool{false, false, true, false, true} {
		if got := errors.Is(batch[i].err, ErrDuplicateTxn); got != wantDup {
			t.Fatalf("request %d (%s): err = %v, duplicate wanted: %v", i, batch[i].txnID, batch[i].err, wantDup)
		}
	}
	if e := s.entries[acct("a")]; len(live) != 3 || e.hiSeq != 8 || balanceOf(t, db, acct("a")) != 3 {
		t.Fatalf("%d survivors, mark %d, balance %v; want 3, 8, 3", len(live), e.hiSeq, balanceOf(t, db, acct("a")))
	}
	again := []*appendReq{req("n1-txn-5"), req("n1-txn-8"), req("n1-txn-3")}
	if live, _ := db.commitBatch(s, again, nil); len(live) != 0 {
		t.Fatalf("%d duplicates of an earlier batch survived", len(live))
	}
	assertTxnIndexMatchesLog(t, db)
}

// MarkObsolete goes by transaction id on an entity whose serial writers never
// needed the map: the lookup builds it then, and keeps it up afterwards.
func TestMarkObsoleteFindsTxnWithoutBuiltIndex(t *testing.T) {
	db := newTestDB(t, Options{})
	key := acct("promises")
	const n = 4 * txnSpill
	for i := 1; i <= n; i++ {
		var err error
		if i == 3 {
			_, err = db.AppendTentative(key, []entity.Op{entity.Delta("balance", 100)}, stamp(int64(i)), "n", "n1-txn-3")
		} else {
			err = deposit(t, db, key, i, fmt.Sprintf("n1-txn-%d", i))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	e := db.shardFor(key).entries[key]
	if e.byTxn != nil {
		t.Fatal("serial writes built byTxn")
	}
	if err := db.MarkObsolete(key, "n1-txn-3"); err != nil {
		t.Fatalf("MarkObsolete: %v", err)
	}
	if err := db.MarkObsolete(key, "n1-txn-999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("MarkObsolete of an unknown txn: %v, want ErrNotFound", err)
	}
	if got := balanceOf(t, db, key); got != n-1 {
		t.Fatalf("balance %v, want %d", got, n-1)
	}
	if err := deposit(t, db, key, n+1, fmt.Sprintf("n1-txn-%d", n+1)); err != nil {
		t.Fatal(err)
	}
	if len(e.byTxn) != n+1 {
		t.Fatalf("byTxn holds %d ids after the lookup built it and one more append, want %d", len(e.byTxn), n+1)
	}
	assertTxnIndexMatchesLog(t, db)
}

// The point of the mark: a hot entity written by serial steps retains ten
// thousand records and never builds the map.
func TestSerialHotEntityNeverBuildsTxnIndex(t *testing.T) {
	for _, group := range []bool{false, true} {
		db := newTestDB(t, Options{GroupCommit: group})
		key := acct("hot")
		const n = 10000
		for i := 1; i <= n; i++ {
			if err := deposit(t, db, key, i, fmt.Sprintf("n1-txn-%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		if e := db.shardFor(key).entries[key]; e.byTxn != nil || e.hiSeq != n || len(e.recs) != n {
			t.Fatalf("group=%v: byTxn built: %v, mark %d, %d records", group, e.byTxn != nil, e.hiSeq, len(e.recs))
		}
		if err := deposit(t, db, key, n, fmt.Sprintf("n1-txn-%d", n)); !errors.Is(err, ErrDuplicateTxn) {
			t.Fatalf("group=%v: resubmitting the newest id: %v, want ErrDuplicateTxn", group, err)
		}
	}
}
