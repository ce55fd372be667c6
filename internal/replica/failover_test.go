package replica

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/entity"
	"repro/internal/lsdb"
	"repro/internal/netsim"
	"repro/internal/storage"
)

// Failover suite: the primary dies while concurrent writers are mid-flight —
// including mid-group-commit, where one leader is folding several writers
// into a single batch — and a standby is promoted underneath them.
// Invariants: every write acked to its writer survives; writes whose fate
// was indeterminate resubmit with their original transaction ids and land
// exactly once; and each entity's surviving records are a prefix of its
// issue order (per-entity lanes never reorder, even across the failover).

type issuedWrite struct {
	txn   string
	acked bool
}

// crashPrimary runs concurrent writers against a group-commit primary with
// synchronous shipping, promotes the standby mid-stream, and returns what
// each writer issued plus the promoted store.
func crashPrimary(t *testing.T, writers, perWriter int) (map[entity.Key][]issuedWrite, *lsdb.DB) {
	t.Helper()
	net := netsim.New(netsim.Config{})
	t.Cleanup(net.Close)
	sb := newShipStandby(t, net, "s1", storage.NewMemory())
	db := lsdb.Open(lsdb.Options{Node: "p", Backend: storage.NewMemory(), Shards: 2, GroupCommit: true})
	if err := db.RegisterType(accountType()); err != nil {
		t.Fatal(err)
	}
	sh := NewShipper(ShipperOptions{
		Self:     "p",
		Standbys: []clock.NodeID{"s1"},
		Mode:     AckSync,
		Timeout:  250 * time.Millisecond,
		Net:      net,
	})
	db.SetCommitSink(sh.Sink(0))

	var mu sync.Mutex
	issued := map[entity.Key][]issuedWrite{}
	count := 0
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := acct(fmt.Sprintf("W%d", w))
			for i := 0; i < perWriter; i++ {
				txn := fmt.Sprintf("w%d-%d", w, i)
				_, err := db.Append(key, []entity.Op{entity.Delta("balance", 1)},
					ts(int64(w*1000+i+1)), "p", txn)
				mu.Lock()
				issued[key] = append(issued[key], issuedWrite{txn: txn, acked: err == nil})
				count++
				mu.Unlock()
				if err != nil {
					// Replication refused the ack: the primary is dying under
					// us; a real client would fail over, not keep writing.
					return
				}
			}
		}(w)
	}

	// Kill the primary once the stream is genuinely mid-flight: promotion
	// fences the standby while group-commit leaders are still shipping.
	for {
		mu.Lock()
		n := count
		mu.Unlock()
		if n >= writers*perWriter/2 {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	dbs, err := promote(sb, nil, lsdb.Options{Node: "s1"}, accountType())
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	wg.Wait()
	return issued, dbs[0]
}

func TestFailoverMidGroupCommitKeepsAckedWritesAndLaneOrder(t *testing.T) {
	const writers, perWriter = 4, 40
	issued, promoted := crashPrimary(t, writers, perWriter)

	for key, ws := range issued {
		var present []string
		for _, rec := range promoted.RecordsFor(key) {
			present = append(present, rec.TxnID)
		}
		// Per-entity lane order: the surviving records are exactly a prefix
		// of the issue order. Each writer is sequential on its own key and
		// stops at the first unacked write, so anything beyond the prefix
		// would mean the stream reordered or invented records.
		if len(present) > len(ws) {
			t.Fatalf("%s: standby holds %d records, only %d issued", key, len(present), len(ws))
		}
		for i, txn := range present {
			if ws[i].txn != txn {
				t.Fatalf("%s: lane order broken at %d: got %s, issued %s", key, i, txn, ws[i].txn)
			}
		}
		// No lost acked writes: every acked txn is within the prefix.
		acked := 0
		for _, w := range ws {
			if w.acked {
				acked++
			}
		}
		if len(present) < acked {
			t.Fatalf("%s: %d acked writes but only %d survived failover", key, acked, len(present))
		}
	}

	// Exactly-once resubmission: replay every issued write with its original
	// transaction id; survivors dedup, the rest land once. The final balance
	// is then exactly the issue count.
	for key, ws := range issued {
		for i, w := range ws {
			_, err := promoted.Append(key, []entity.Op{entity.Delta("balance", 1)},
				ts(int64(50000+i)), "s1", w.txn)
			if err != nil && !errors.Is(err, lsdb.ErrDuplicateTxn) {
				t.Fatalf("resubmitting %s: %v", w.txn, err)
			}
		}
		st, _, err := promoted.Current(key)
		if err != nil {
			t.Fatalf("Current(%s): %v", key, err)
		}
		if got, want := st.Float("balance"), float64(len(ws)); got != want {
			t.Fatalf("%s: balance after resubmission = %v, want %v (exactly-once violated)", key, got, want)
		}
	}
}

// The same crash with a larger writer pool, to shake out leader/batch edges
// under -race; invariants only, no balances.
func TestFailoverMidGroupCommitManyWriters(t *testing.T) {
	if testing.Short() {
		t.Skip("long crash matrix")
	}
	issued, promoted := crashPrimary(t, 8, 60)
	for key, ws := range issued {
		present := map[string]bool{}
		for _, rec := range promoted.RecordsFor(key) {
			present[rec.TxnID] = true
		}
		for _, w := range ws {
			if w.acked && !present[w.txn] {
				t.Fatalf("%s: acked write %s lost", key, w.txn)
			}
		}
	}
}
