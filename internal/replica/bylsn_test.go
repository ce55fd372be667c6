package replica

import (
	"errors"
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
	// The heads agree too: B1, archived here and retained there, reads the
	// LSN of its last record on both.
	for _, key := range []entity.Key{a, b, c} {
		_, hw, _ := p.db.Current(key)
		_, hg, _ := dbs[0].Current(key)
		if hw != hg {
			t.Errorf("%s: head %d on the primary, %d on the promoted standby", key, hw, hg)
		}
	}
}

// An older build's standby appended the marks its primary shipped (an
// obsolescence mark, a compaction horizon) as received, and re-served them in
// every catch-up chunk, so its log could hold each mark twice: once live, and
// again by catch-up from a standby whose log held them. Such logs are built
// here as that build left them, the frames going straight into the standbys'
// backends (this build's Receive refuses a mark). The one holding each mark
// twice promotes to the same states as the one holding each once: replaying
// a repeated mark changes nothing.
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
	marks := []lsdb.Record{{Kind: storage.KindObsolete, Key: a, TxnID: "promise-1"}, {Kind: storage.KindCompact, Horizon: 3}}
	// Received once: the live batch (three appends and the marks), then the
	// rest. Received twice: the live batch, then a catch-up after LSN 3 from
	// the first, which re-sent the marks ahead of the rest.
	onceLog, twiceLog := legacyLog(t, appends[:3], marks, appends[3:]), legacyLog(t, appends[:3], marks, marks, appends[3:])

	net := netsim.New(netsim.Config{})
	defer net.Close()
	once := newShipStandby(t, net, "s1", onceLog)
	twice := newShipStandby(t, net, "s2", twiceLog)
	if got := marksIn(t, twiceLog); got != 4 {
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

// A standby whose log holds an older primary's marks cannot serve a catch-up
// cut by LSN: a mark has no LSN to cut at. (An older build passed every mark
// through, so each chunk it served re-sent all of them and its puller's log
// grew by marks × chunks.) The catch-up is answered with ErrCompacted, the
// puller's log gains no mark, and the puller still reaches the primary's
// watermark from the primary. A shipped mark is refused as well.
func TestCatchUpFromLegacyMarksIsRefused(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	p := newShipPrimary(t, net, "p", nil, AckAsync)
	defer p.shipper.Close()
	for i := int64(1); i <= 6; i++ {
		if _, err := p.db.Append(acct(fmt.Sprintf("A%d", i%2)), []entity.Op{entity.Delta("balance", 1)}, ts(i), "p", ""); err != nil {
			t.Fatal(err)
		}
	}
	appends := p.db.RecordsAfterN(0, 0)
	marks := []lsdb.Record{{Kind: storage.KindObsolete, Key: acct("A1"), TxnID: "promise-1"}, {Kind: storage.KindCompact, Horizon: 3}}
	older := newShipStandby(t, net, "s1", legacyLog(t, appends[:3], marks, appends[3:]))
	pullerLog := storage.NewMemory()
	puller, err := NewStandby(StandbyOptions{Self: "s2", Net: net, Backends: []storage.Backend{pullerLog}, CatchupChunk: 2, Timeout: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := puller.CatchUp(older.ID(), 0); !errors.Is(err, storage.ErrCompacted) {
		t.Fatalf("catch-up from a log holding marks: %v, want ErrCompacted", err)
	}
	if _, _, err := puller.Receive(ShipBatch{From: "p", Records: marks}); !errors.Is(err, ErrNotAppend) {
		t.Fatalf("receiving marks: %v, want ErrNotAppend", err)
	}
	if got := marksIn(t, pullerLog); got != 0 {
		t.Fatalf("puller's log gained %d marks, want none", got)
	}
	if _, err := puller.CatchUp("p", 0); err != nil {
		t.Fatal(err)
	}
	if got, want := puller.Watermark(0), p.db.HeadLSN(); got != want || pullerLog.Len() != int(want) {
		t.Fatalf("puller at watermark %d holding %d records, want the primary's %d", got, pullerLog.Len(), want)
	}
	if got := marksIn(t, pullerLog); got != 0 {
		t.Fatalf("puller's log holds %d marks after catching up from the primary, want none", got)
	}
}

// legacyLog is a standby log as an older build left it: the batches, in
// order, appended straight to a backend.
func legacyLog(t *testing.T, batches ...[]lsdb.Record) *storage.Memory {
	t.Helper()
	log := storage.NewMemory()
	for _, batch := range batches {
		if err := log.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	return log
}

// marksIn counts the frames of a log that are not appends.
func marksIn(t *testing.T, log storage.Backend) int {
	t.Helper()
	n := 0
	if _, err := log.Replay(func(rec storage.WALRecord) error {
		if rec.Kind != storage.KindAppend {
			n++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return n
}
