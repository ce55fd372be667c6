package lsdb

import (
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/entity"
	"repro/internal/storage"
)

// ackedLog writes to a store and remembers every key it wrote and every
// transaction id the store acknowledged, in order. Safe for concurrent use.
type ackedLog struct {
	db *DB

	mu   sync.Mutex
	n    int
	keys []entity.Key
	txns []ackedTxn
	// flushed is how many of txns a tiered flush folded into a table.
	flushed int
}

type ackedTxn struct {
	key entity.Key
	id  string
}

// write appends ops to key under the next id of the store's own family
// ("<Node>-txn-<n>"), tentative for a promise, and fails the test unless the
// store acknowledges it.
func (l *ackedLog) write(t *testing.T, key entity.Key, promise bool, ops ...entity.Op) {
	l.mu.Lock()
	l.n++
	n := l.n
	l.mu.Unlock()
	id := fmt.Sprintf("%s-txn-%d", l.db.Node(), n)
	var err error
	if promise {
		_, err = l.db.AppendTentative(key, ops, stamp(int64(n)), "n", id)
	} else {
		_, err = l.db.Append(key, ops, stamp(int64(n)), "n", id)
	}
	if err != nil {
		t.Errorf("write %s to %s: %v", id, key, err)
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if !slices.Contains(l.keys, key) {
		l.keys = append(l.keys, key)
	}
	l.txns = append(l.txns, ackedTxn{key, id})
}

// applied is Applied for every acknowledged id.
func (l *ackedLog) applied(db *DB) []bool {
	out := make([]bool, len(l.txns))
	for i, tx := range l.txns {
		out[i] = db.Applied(nil, tx.key, tx.id)
	}
	return out
}

// Compaction is log state: after Compact, a restart reads every key exactly
// as the live store did — Exists, Current, Promises and History
// (goldenViews), Applied for every acknowledged transaction id, and
// TxnFloor — on a memory log, a plain WAL and a tiered store, with writers
// racing the compactions too.
//
// The tiered store's "checkpoint" case compacts, writes, flushes and writes
// again, while a trailing replication watermark holds the WAL, so the tail a
// restart replays still holds the compaction's summary frames beneath the
// newer table: an older frame must not undo the table's state. A flush folds
// the settled records it covers into the table's summary, which carries no
// ids or versions, so there History is not compared (Current holds the
// state), and the ids the flush folded end at the restart (as
// TestResubmissionAppliesAgainPastItsWindow has it): none of them reads
// applied.
func TestCompactionLiveEqualsRestarted(t *testing.T) {
	backends := []struct {
		name string
		open func(t *testing.T, dir string) storage.Backend
	}{
		{"memory", nil},
		{"wal", func(t *testing.T, dir string) storage.Backend { return openTestWAL(t, dir, storage.SyncOS) }},
		{"tiered", func(t *testing.T, dir string) storage.Backend { return openTestTiered(t, dir, nil) }},
	}
	order := entity.Key{Type: "Order", ID: "O-1"}
	cases := []struct {
		name       string
		tieredOnly bool
		run        func(t *testing.T, l *ackedLog)
	}{
		{"serial", false, func(t *testing.T, l *ackedLog) {
			for i := range 12 {
				l.write(t, acct(fmt.Sprintf("A-%d", i%4)), false, entity.Delta("balance", float64(i+1)))
			}
			l.write(t, order, false, entity.Set("status", "OPEN"),
				entity.InsertChild("lineitems", "L-1", entity.Fields{"qty": int64(2)}),
				entity.InsertChild("lineitems", "L-2", entity.Fields{"qty": int64(1)}))
			l.write(t, order, false, entity.DeleteChild("lineitems", "L-2"))
			l.write(t, acct("P"), false, entity.Set("balance", 10.0))
			l.write(t, acct("P"), true, entity.Delta("balance", -4)) // pending: Compact keeps P
			l.write(t, acct("W"), true, entity.Delta("balance", 3))
			l.write(t, acct("W"), false, entity.BreakPromise(l.txns[len(l.txns)-1].id, "no stock", ""))
			l.write(t, acct("A-1"), false, entity.Delta("balance", 100)) // A-1 stays above the first horizon
			l.db.Compact(l.db.HeadLSN() - 1)
			l.write(t, acct("A-0"), false, entity.Delta("balance", 7))
			l.write(t, order, false, entity.Set("status", "PAID"))
			l.db.Compact(l.db.HeadLSN()) // a second summary for A-0 and O-1
			l.write(t, acct("A-2"), false, entity.Delta("balance", 1))
		}},
		{"concurrent", false, func(t *testing.T, l *ackedLog) {
			var wg sync.WaitGroup
			for w := range 4 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range 60 {
						key := acct(fmt.Sprintf("A-%d", (w+i)%6))
						l.write(t, key, i%9 == 4, entity.Delta("balance", 1))
					}
				}()
			}
			for range 20 {
				l.db.Compact(l.db.HeadLSN())
			}
			wg.Wait()
			l.db.Compact(l.db.HeadLSN() - 20)
		}},
		{"checkpoint", true, func(t *testing.T, l *ackedLog) {
			for i := range 12 {
				l.write(t, acct(fmt.Sprintf("A-%d", i%4)), false, entity.Delta("balance", float64(i+1)))
			}
			if l.db.Compact(l.db.HeadLSN()) == 0 {
				t.Fatal("Compact summarised nothing")
			}
			l.write(t, acct("A-0"), false, entity.Delta("balance", 7))
			l.write(t, acct("A-9"), false, entity.Delta("balance", 9))
			// A standby trailing at LSN 1 keeps every WAL segment.
			if err := l.db.opts.Backend.(storage.ReplicationMarker).SetReplicationWatermark(1); err != nil {
				t.Fatal(err)
			}
			l.flushed = len(l.txns)
			if err := l.db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			l.write(t, acct("A-1"), false, entity.Delta("balance", 5))
			l.write(t, acct("A-9"), false, entity.Delta("balance", 1))
		}},
	}
	for _, b := range backends {
		for _, c := range cases {
			if c.tieredOnly && b.name != "tiered" {
				continue
			}
			t.Run(b.name+"/"+c.name, func(t *testing.T) {
				dir := filepath.Join(t.TempDir(), "log")
				var backend storage.Backend = storage.NewMemory()
				if b.open != nil {
					backend = b.open(t, dir)
				}
				opts := Options{Node: "test-node", Backend: backend, Shards: 4, SnapshotEvery: 4}
				l := &ackedLog{db: newTestDB(t, opts)}
				c.run(t, l)
				if t.Failed() {
					return
				}
				want, wantApplied, wantFloor := goldenViews(t, l.db, l.keys), l.applied(l.db), l.db.TxnFloor()
				if b.open != nil {
					if err := l.db.Close(); err != nil {
						t.Fatal(err)
					}
					opts.Backend = b.open(t, dir)
				}
				if c.name == "checkpoint" {
					summaryFrames := 0
					if _, err := opts.Backend.Replay(func(rec storage.WALRecord) error {
						if rec.Kind == storage.KindSummary && rec.Summary != nil {
							summaryFrames++
						}
						return nil
					}); err != nil {
						t.Fatal(err)
					}
					if summaryFrames == 0 {
						t.Fatal("the WAL tail holds no compaction summary; the case tests nothing")
					}
				}
				restarted, err := Recover(opts, accountType(), orderType())
				if err != nil {
					t.Fatalf("Recover: %v", err)
				}
				defer restarted.Close()
				got, gotApplied := goldenViews(t, restarted, l.keys), l.applied(restarted)
				if c.name == "checkpoint" {
					for _, views := range []map[entity.Key]goldenView{want, got} {
						for key, v := range views {
							v.History = nil
							views[key] = v
						}
					}
				}
				for _, key := range l.keys {
					if !reflect.DeepEqual(got[key], want[key]) {
						t.Errorf("%s after restart:\n got %+v\nwant %+v", key, got[key], want[key])
					}
				}
				for i, tx := range l.txns {
					if want := wantApplied[i] && i >= l.flushed; gotApplied[i] != want {
						t.Errorf("Applied(%s, %s) = %v after restart, want %v (%v live)", tx.key, tx.id, gotApplied[i], want, wantApplied[i])
					}
				}
				if got := restarted.TxnFloor(); got != wantFloor {
					t.Errorf("TxnFloor = %d after restart, %d live", got, wantFloor)
				}
			})
		}
	}
}

// A compaction whose summary frames the backend refuses leaves its shard
// uncompacted — every record retained, History whole — and degrades the
// store as a refused append does; once the backend heals, the next Compact
// archives and a restart reads what the live store does.
func TestRefusedCompactionLeavesShardUncompacted(t *testing.T) {
	fb := storage.NewFaultBackend(storage.NewMemory())
	opts := Options{Node: "test-node", Backend: fb, Shards: 1, RearmAfter: time.Millisecond}
	l := &ackedLog{db: newTestDB(t, opts)}
	for i := range 4 {
		l.write(t, acct("A"), false, entity.Delta("balance", float64(i+1)))
	}
	before := goldenViews(t, l.db, l.keys)
	fb.FailAppends(1)
	if n := l.db.Compact(l.db.HeadLSN()); n != 0 {
		t.Fatalf("Compact over a refusing backend summarised %d entities, want 0", n)
	}
	if l.db.Degraded() == nil || l.db.Len() != 4 {
		t.Fatalf("after a refused compaction: degraded %v, %d records retained; want degraded and 4", l.db.Degraded(), l.db.Len())
	}
	if got := goldenViews(t, l.db, l.keys); !reflect.DeepEqual(got, before) {
		t.Fatalf("a refused compaction changed the store:\n got %+v\nwant %+v", got, before)
	}
	time.Sleep(2 * time.Millisecond) // past RearmAfter: the next append probes
	if n := l.db.Compact(l.db.HeadLSN()); n != 1 || l.db.Len() != 0 {
		t.Fatalf("Compact after the heal summarised %d entities, %d records left; want 1 and 0", n, l.db.Len())
	}
	want := goldenViews(t, l.db, l.keys)
	restarted, err := Recover(opts, accountType(), orderType())
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenViews(t, restarted, l.keys); !reflect.DeepEqual(got, want) {
		t.Fatalf("after restart:\n got %+v\nwant %+v", got, want)
	}
}
