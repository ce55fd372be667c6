package lsdb

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/apology"
	"repro/internal/clock"
	"repro/internal/entity"
	"repro/internal/storage"
)

// AppendTentative is AppendPromise with no limit, the tentative append the
// package's tests write.
func (db *DB) AppendTentative(key entity.Key, ops []entity.Op, stamp clock.Timestamp, origin clock.NodeID, txnID string) (AppendResult, error) {
	return db.AppendPromise(key, ops, stamp, origin, txnID, 0)
}

// MarkObsolete withdraws the record txnID wrote on key the way older builds
// did: it logs an obsolescence mark (the frame Recover still replays) and
// flags the record, under the shard lock so the mark follows the record in
// the log. Nothing reaches the commit sink.
func (db *DB) MarkObsolete(key entity.Key, txnID string) error {
	s := db.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entry(key)
	var lsn uint64
	ok := false
	if e != nil {
		lsn, ok = s.txnLSNLocked(e, txnID)
	}
	if !ok {
		return fmt.Errorf("%w: txn %s on %s", ErrNotFound, txnID, key)
	}
	if err := db.logFrames([]Record{{Kind: storage.KindObsolete, Key: key, TxnID: txnID}}); err != nil {
		return err
	}
	s.settleLocked(e, lsn, false)
	db.markDirtyLocked(s, key, e)
	return nil
}

// An entity whose only record was withdrawn — a broken promise made on its
// first write — reads as absent: Exists, Current, Scan and KeysOfType skip
// it, History still lists the withdrawn record, and neither a compaction
// nor a recovery brings it back, from a memory log or from a tiered store
// whose table held the promise while it was pending. The withdrawal is a
// raw mark or a settlement.
func TestWithdrawnFirstWriteReadsAbsent(t *testing.T) {
	for _, how := range []string{"mark", "settlement"} {
		for _, path := range []string{"memory", "memory-compacted", "tiered", "tiered-compacted"} {
			t.Run(how+"/"+path, func(t *testing.T) {
				tiered, compacted := strings.HasPrefix(path, "tiered"), strings.HasSuffix(path, "compacted")
				dir := t.TempDir()
				var backend storage.Backend = storage.NewMemory()
				if tiered {
					backend = openTestTiered(t, dir, nil)
				}
				db := newTestDB(t, Options{Backend: backend})
				key, other := acct("first"), acct("other")
				if err := deposit(t, db, other, 1, "o1"); err != nil {
					t.Fatal(err)
				}
				if _, err := db.AppendTentative(key, []entity.Op{entity.Promise("hold", "alice", 5), entity.Delta("balance", 5)}, stamp(2), "n", "p1"); err != nil {
					t.Fatal(err)
				}
				if err := db.Checkpoint(); err != nil { // tiered: the pending promise lands in a table
					t.Fatal(err)
				}
				var err error
				if how == "mark" {
					err = db.MarkObsolete(key, "p1")
				} else {
					_, err = db.Append(key, []entity.Op{entity.BreakPromise("p1", "no stock", "")}, stamp(3), "n", "s1")
				}
				if err != nil {
					t.Fatal(err)
				}
				absent := func(db *DB, when string) {
					t.Helper()
					if db.Exists(key) {
						t.Fatalf("%s: Exists = true", when)
					}
					if st, _, err := db.Current(key); !errors.Is(err, ErrNotFound) {
						t.Fatalf("%s: Current = %v, %v; want ErrNotFound", when, st, err)
					}
					var scanned []entity.Key
					if err := db.Scan("Account", func(st *entity.State) bool { scanned = append(scanned, st.Key); return true }); err != nil {
						t.Fatal(err)
					}
					if keys := db.KeysOfType("Account"); !slices.Equal(keys, []entity.Key{other}) || !slices.Equal(scanned, keys) {
						t.Fatalf("%s: KeysOfType %v, Scan %v; want only %s", when, keys, scanned, other)
					}
					if h, err := db.History(key); err != nil || h.Len() == 0 || !h.Versions[0].Obsolete {
						t.Fatalf("%s: History = %+v, %v; want the withdrawn record", when, h, err)
					}
					if p := db.AllPromises(); len(p) != 0 {
						t.Fatalf("%s: pending %+v, want none", when, p)
					}
				}
				absent(db, "live")
				if compacted {
					db.Compact(db.HeadLSN())
					absent(db, "compacted")
				}
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				absent(db, "checkpointed")
				if tiered {
					if err := db.Close(); err != nil {
						t.Fatal(err)
					}
					backend = openTestTiered(t, dir, nil)
				}
				rec, err := Recover(Options{Node: "test-node", Backend: backend}, accountType(), orderType())
				if err != nil {
					t.Fatal(err)
				}
				absent(rec, "recovered")
			})
		}
	}
}

// KeysOfType lists one type's keys in ID order, whatever the order the
// entities were written in and however the other types' keys interleave.
func TestKeysOfTypeOrder(t *testing.T) {
	db := newTestDB(t, Options{})
	ids := []string{"m", "b", "z", "a10", "a2", "A", "y"}
	for i, id := range ids {
		if err := deposit(t, db, acct(id), i, ""); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Append(entity.Key{Type: "Order", ID: id + "-o"}, []entity.Op{entity.Set("status", "OPEN")}, stamp(int64(i)), "n", ""); err != nil {
			t.Fatal(err)
		}
	}
	var want []entity.Key
	for _, id := range []string{"A", "a10", "a2", "b", "m", "y", "z"} {
		want = append(want, acct(id))
	}
	if got := db.KeysOfType("Account"); !slices.Equal(got, want) {
		t.Fatalf("KeysOfType = %v, want %v", got, want)
	}
}

// A settlement refused for its promise writes nothing: an unknown id, a
// settled promise, a plain record's id; and a promise beyond the limit.
func TestSettlementRefusals(t *testing.T) {
	db := newTestDB(t, Options{})
	key := acct("A")
	if err := deposit(t, db, key, 1, "plain"); err != nil {
		t.Fatal(err)
	}
	promise := func(id string) error {
		_, err := db.AppendPromise(key, []entity.Op{entity.Promise("hold", "alice", 1), entity.Delta("balance", -1)}, stamp(2), "n", id, 1)
		return err
	}
	settle := func(op entity.Op, txn string) error {
		_, err := db.Append(key, []entity.Op{op}, stamp(3), "n", txn)
		return err
	}
	if err := promise("p1"); err != nil {
		t.Fatal(err)
	}
	head := db.HeadLSN()
	for _, c := range []struct {
		name string
		err  error
		do   func() error
	}{
		{"beyond the limit", apology.ErrPromiseLimit, func() error { return promise("p2") }},
		{"unknown id", apology.ErrUnknownPromise, func() error { return settle(entity.KeepPromise("nope"), "s0") }},
		{"plain record", apology.ErrUnknownPromise, func() error { return settle(entity.KeepPromise("plain"), "s1") }},
	} {
		if err := c.do(); !errors.Is(err, c.err) {
			t.Fatalf("%s: %v, want %v", c.name, err, c.err)
		}
	}
	if db.HeadLSN() != head {
		t.Fatalf("a refused write took an LSN: head %d, was %d", db.HeadLSN(), head)
	}
	if err := settle(entity.KeepPromise("p1"), "s2"); err != nil {
		t.Fatal(err)
	}
	for i, op := range []entity.Op{entity.KeepPromise("p1"), entity.BreakPromise("p1", "late", "")} {
		if err := settle(op, fmt.Sprint("again-", i)); !errors.Is(err, apology.ErrAlreadySettled) {
			t.Fatalf("settling a kept promise again: %v, want ErrAlreadySettled", err)
		}
	}
	if ps := db.Promises(key); len(ps) != 0 {
		t.Fatalf("pending after the keep: %+v", ps)
	}
	if err := promise("p3"); err != nil {
		t.Fatalf("promise after the keep freed the limit: %v", err)
	}
}
