package replica

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/entity"
	"repro/internal/lsdb"
	"repro/internal/netsim"
	"repro/internal/storage"
)

// Replication is by LSN alone: a standby at watermark L holds every append at
// or below L, and a withdrawal is an append (a break settlement). So a
// withdrawal lost in flight is an LSN the catch-up sends again. The schedule:
// seed 5, promise −3, wait until the standby holds both, partition, break the
// promise (and make another one), heal, catch up, promote. The promoted node
// reads the pre-promise balance, and its pending set is the primary's.
func TestWithdrawalLostInFlightReachesPromotedStandby(t *testing.T) {
	for run := 0; run < 20; run++ {
		t.Run(fmt.Sprint(run), func(t *testing.T) {
			net := netsim.New(netsim.Config{})
			defer net.Close()
			sb := newShipStandby(t, net, "s1", storage.NewMemory())
			p := newShipPrimary(t, net, "p", []clock.NodeID{"s1"}, AckAsync)
			defer p.shipper.Close()
			key, other := acct("A1"), acct("B1")
			if _, err := p.db.Append(key, []entity.Op{entity.Set("balance", 5.0)}, ts(1), "p", "seed"); err != nil {
				t.Fatal(err)
			}
			if _, err := p.db.AppendPromise(key, []entity.Op{entity.Delta("balance", -3)}, ts(2), "p", "promise-1", 0); err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(5 * time.Second); sb.Watermark(0) != 2; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("standby watermark = %d, want 2", sb.Watermark(0))
				}
			}
			net.Partition([]clock.NodeID{"p"}, []clock.NodeID{"s1"})
			if _, err := p.db.Append(key, []entity.Op{entity.BreakPromise("promise-1", "no stock", "coupon")}, ts(3), "p", ""); err != nil {
				t.Fatal(err)
			}
			if _, err := p.db.AppendPromise(other, []entity.Op{entity.Delta("balance", -1)}, ts(4), "p", "promise-2", 0); err != nil {
				t.Fatal(err)
			}
			p.shipper.Drain()
			net.Heal()
			if _, err := sb.CatchUp("p", 0); err != nil {
				t.Fatal(err)
			}
			want := p.db.AllPromises()
			promoted, bal := promoteBalance(t, sb, nil, key)
			if bal != 5 {
				t.Fatalf("promoted balance = %v, want 5 (the broken promise withdrawn)", bal)
			}
			if got := promoted.AllPromises(); len(want) != 1 || !reflect.DeepEqual(got, want) {
				t.Fatalf("promoted pending = %+v, primary's = %+v", got, want)
			}
		})
	}
}

// sameStores fails unless every key reads the same on both stores: state
// (fields and flags) and pending promises.
func sameStores(t *testing.T, want, got *lsdb.DB, keys ...entity.Key) {
	t.Helper()
	for _, key := range keys {
		sw, _, errW := want.Current(key)
		sg, _, errG := got.Current(key)
		if errW != nil || errG != nil {
			t.Fatalf("Current(%s): %v / %v", key, errW, errG)
		}
		if !reflect.DeepEqual(sw.Fields, sg.Fields) || sw.Tentative != sg.Tentative || sw.Deleted != sg.Deleted {
			t.Fatalf("%s: %+v, want %+v", key, sg, sw)
		}
	}
	if pw, pg := want.AllPromises(), got.AllPromises(); !reflect.DeepEqual(pw, pg) {
		t.Fatalf("pending = %+v, want %+v", pg, pw)
	}
}

// A compaction is each node's own housekeeping: the primary's Compact ships
// nothing, so the standby's received log holds appends only, and the
// promoted store (which never compacted) reads what the primary does.
func TestCompactionStaysLocal(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	sb := newShipStandby(t, net, "s1", storage.NewMemory())
	p := newShipPrimary(t, net, "p", []clock.NodeID{"s1"}, AckSync)
	defer p.shipper.Close()
	a, b, c := acct("A1"), acct("B1"), acct("C1")
	n := int64(0)
	write := func(key entity.Key, op entity.Op, promise bool) {
		t.Helper()
		n++
		var err error
		if promise {
			_, err = p.db.AppendPromise(key, []entity.Op{op}, ts(n), "p", fmt.Sprintf("promise-%d", n), 0)
		} else {
			_, err = p.db.Append(key, []entity.Op{op}, ts(n), "p", "")
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		write(a, entity.Delta("balance", 10), false)
		write(b, entity.Delta("balance", 1), false)
	}
	write(c, entity.Set("balance", 7.0), false)
	write(c, entity.Delta("balance", -2), true) // pending: Compact keeps C1
	if got := p.db.Compact(p.db.HeadLSN()); got != 2 {
		t.Fatalf("Compact summarised %d entities, want 2 (A1, B1)", got)
	}
	write(a, entity.Delta("balance", 1), false)

	tail, err := TailAfter(sb.Backends()[0], 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range tail {
		if rec.Kind != storage.KindAppend {
			t.Fatalf("standby log holds a %d record (horizon %d); the compaction must stay local", rec.Kind, rec.Horizon)
		}
	}
	if uint64(len(tail)) != p.db.HeadLSN() || sb.Watermark(0) != p.db.HeadLSN() {
		t.Fatalf("standby holds %d records at watermark %d, primary head %d", len(tail), sb.Watermark(0), p.db.HeadLSN())
	}
	dbs, err := promote(sb, nil, lsdb.Options{Node: "s1"}, accountType())
	if err != nil {
		t.Fatal(err)
	}
	sameStores(t, p.db, dbs[0], a, b, c)
}

// A standby appends the marks an older build's primary ships (an
// obsolescence mark, a compaction horizon) as received, without dedup. One
// that receives them twice — live, and again by catch-up from a standby whose
// log holds them — promotes to the same states as one that received them
// once: replaying a repeated mark changes nothing.
func TestLegacyMarksReceivedTwicePromoteAsOnce(t *testing.T) {
	// The appends an older build's primary shipped, made here on a store;
	// the marks are its frames.
	old := lsdb.Open(lsdb.Options{Node: "p"})
	if err := old.RegisterType(accountType()); err != nil {
		t.Fatal(err)
	}
	a, b, c := acct("A1"), acct("B1"), acct("C1")
	for i, w := range []struct {
		key     entity.Key
		op      entity.Op
		promise string
	}{
		{a, entity.Set("balance", 5.0), ""},
		{a, entity.Delta("balance", -3), "promise-1"},
		{b, entity.Set("balance", 1.0), ""},
		{a, entity.Delta("balance", 1), ""},
		{c, entity.Set("balance", 2.0), ""},
	} {
		var err error
		if w.promise != "" {
			_, err = old.AppendPromise(w.key, []entity.Op{w.op}, ts(int64(i+1)), "p", w.promise, 0)
		} else {
			_, err = old.Append(w.key, []entity.Op{w.op}, ts(int64(i+1)), "p", "")
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	appends := old.RecordsAfterN(0, 0)
	live := ShipBatch{From: "p", Records: append(appends[:3:3],
		lsdb.Record{Kind: storage.KindObsolete, Key: a, TxnID: "promise-1"},
		lsdb.Record{Kind: storage.KindCompact, Horizon: 3})}
	later := ShipBatch{From: "p", Records: appends[3:]}

	net := netsim.New(netsim.Config{})
	defer net.Close()
	once := newShipStandby(t, net, "s1", storage.NewMemory())
	twice := newShipStandby(t, net, "s2", storage.NewMemory())
	for _, batch := range []ShipBatch{live, later} {
		if _, _, err := once.Receive(batch); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := twice.Receive(live); err != nil {
		t.Fatal(err)
	}
	if _, err := twice.CatchUp("s1", 0); err != nil {
		t.Fatal(err)
	}
	marks := func(sb *Standby) int {
		tail, err := TailAfter(sb.Backends()[0], 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, rec := range tail {
			if rec.Kind != storage.KindAppend {
				n++
			}
		}
		return n
	}
	if got := marks(twice); got != 4 {
		t.Fatalf("twice-fed standby log holds %d marks, want 4 (each received twice)", got)
	}
	if once.Watermark(0) != 5 || twice.Watermark(0) != 5 {
		t.Fatalf("watermarks %d and %d, want 5", once.Watermark(0), twice.Watermark(0))
	}
	dbsOnce, err := promote(once, nil, lsdb.Options{Node: "s1"}, accountType())
	if err != nil {
		t.Fatal(err)
	}
	dbsTwice, err := promote(twice, nil, lsdb.Options{Node: "s2"}, accountType())
	if err != nil {
		t.Fatal(err)
	}
	sameStores(t, dbsOnce[0], dbsTwice[0], a, b, c)
	if st, _, _ := dbsTwice[0].Current(a); st.Float("balance") != 6 {
		t.Fatalf("A1 balance = %v, want 6 (the promise withdrawn by the mark)", st.Float("balance"))
	}
}
