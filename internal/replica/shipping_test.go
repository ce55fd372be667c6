package replica

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/entity"
	"repro/internal/lsdb"
	"repro/internal/netsim"
	"repro/internal/storage"
)

func ts(n int64) clock.Timestamp {
	return clock.Timestamp{WallNanos: n, Node: "p"}
}

// shipPrimary is a single-unit primary: a store whose commit sink ships to
// the standbys.
type shipPrimary struct {
	db      *lsdb.DB
	shipper *Shipper
}

func newShipPrimary(t *testing.T, net *netsim.Network, self clock.NodeID, standbys []clock.NodeID, mode AckMode) *shipPrimary {
	t.Helper()
	db := lsdb.Open(lsdb.Options{Node: self, Backend: storage.NewMemory(), Shards: 4})
	if err := db.RegisterType(accountType()); err != nil {
		t.Fatal(err)
	}
	sh := NewShipper(ShipperOptions{
		Self:     self,
		Standbys: standbys,
		Mode:     mode,
		Timeout:  250 * time.Millisecond,
		Net:      net,
		Source:   func(unit int, after uint64, limit int) []lsdb.Record { return db.RecordsAfterN(after, limit) },
	})
	db.SetCommitSink(sh.Sink(0))
	return &shipPrimary{db: db, shipper: sh}
}

func newShipStandby(t *testing.T, net *netsim.Network, self clock.NodeID, backend storage.Backend) *Standby {
	t.Helper()
	sb, err := NewStandby(StandbyOptions{
		Self:     self,
		Net:      net,
		Backends: []storage.Backend{backend},
		Timeout:  250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sb
}

func promoteBalance(t *testing.T, sb *Standby, peers []clock.NodeID, key entity.Key) (*lsdb.DB, float64) {
	t.Helper()
	dbs, err := promote(sb, peers, lsdb.Options{Node: sb.ID()}, accountType())
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	st, _, err := dbs[0].Current(key)
	if err != nil {
		t.Fatalf("Current on promoted store: %v", err)
	}
	return dbs[0], st.Float("balance")
}

// Synchronous shipping keeps the standby's log a live mirror: after appends,
// a promise and the settlement that breaks it, promoting the standby
// reproduces the primary's state exactly, including the withdrawn record.
func TestShipSyncMirrorsLogAndPromotes(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	sb := newShipStandby(t, net, "s1", storage.NewMemory())
	p := newShipPrimary(t, net, "p", []clock.NodeID{"s1"}, AckSync)
	key := acct("A1")
	for i := 0; i < 3; i++ {
		if _, err := p.db.Append(key, []entity.Op{entity.Delta("balance", 10)}, ts(int64(i+1)), "p", ""); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if _, err := p.db.AppendPromise(key, []entity.Op{entity.Delta("balance", 100)}, ts(4), "p", "tentative-1", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.db.Append(key, []entity.Op{entity.BreakPromise("tentative-1", "", "")}, ts(5), "p", ""); err != nil {
		t.Fatal(err)
	}
	if got := sb.Watermark(0); got != 5 {
		t.Fatalf("standby watermark = %d, want 5", got)
	}
	if st := sb.Stats(); st.Gaps != 0 || st.Duplicates != 0 {
		t.Fatalf("clean sync stream recorded gaps/duplicates: %+v", st)
	}
	_, bal := promoteBalance(t, sb, nil, key)
	if bal != 30 {
		t.Fatalf("promoted balance = %v, want 30 (the settlement must have shipped)", bal)
	}
}

// Each ack mode draws the line differently when standbys are unreachable.
func TestAckModesUnderBlockedLinks(t *testing.T) {
	cases := []struct {
		name    string
		mode    AckMode
		blocked []clock.NodeID
		wantErr bool
	}{
		{"sync-one-blocked", AckSync, []clock.NodeID{"s2"}, true},
		{"quorum-minority-blocked", AckQuorum, []clock.NodeID{"s2"}, false},
		{"quorum-majority-blocked", AckQuorum, []clock.NodeID{"s1", "s2"}, true},
		{"async-all-blocked", AckAsync, []clock.NodeID{"s1", "s2"}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net := netsim.New(netsim.Config{UnreachableDelay: time.Millisecond})
			defer net.Close()
			standbys := map[clock.NodeID]*Standby{
				"s1": newShipStandby(t, net, "s1", storage.NewMemory()),
				"s2": newShipStandby(t, net, "s2", storage.NewMemory()),
			}
			p := newShipPrimary(t, net, "p", []clock.NodeID{"s1", "s2"}, tc.mode)
			blocked := map[clock.NodeID]bool{}
			for _, s := range tc.blocked {
				net.SetLinkFault("p", s, netsim.LinkFault{Block: true})
				blocked[s] = true
			}
			key := acct("A1")
			_, err := p.db.Append(key, []entity.Op{entity.Delta("balance", 10)}, ts(1), "p", "t1")
			if tc.wantErr {
				if !errors.Is(err, ErrStandbyAcks) {
					t.Fatalf("err = %v, want ErrStandbyAcks", err)
				}
			} else if err != nil {
				t.Fatalf("err = %v, want success", err)
			}
			// Whatever the replication verdict, the write is committed and
			// durable on the primary (post-install indeterminacy).
			st, _, cerr := p.db.Current(key)
			if cerr != nil || st.Float("balance") != 10 {
				t.Fatalf("primary state after ship: %v %v", st, cerr)
			}
			// A synchronous ack means a standby already holds the write.
			if tc.mode != AckAsync && !tc.wantErr && standbys["s1"].Watermark(0) != 1 {
				t.Fatalf("acked %s write not held by the reachable standby", tc.mode)
			}
			// Once the lanes drain, exactly the reachable standbys hold it.
			p.shipper.Drain()
			net.Quiesce()
			for id, sb := range standbys {
				want := uint64(1)
				if blocked[id] {
					want = 0
				}
				if sb.Watermark(0) != want {
					t.Fatalf("standby %s watermark = %d, want %d (blocked=%v)", id, sb.Watermark(0), want, blocked[id])
				}
			}
		})
	}
}

// A quorum write with every standby reachable returns once a majority holds
// it; once the lanes drain, every standby holds it and promoting either one
// reproduces the primary's balance.
func TestQuorumWriteSucceedsWithMajority(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	standbys := map[clock.NodeID]*Standby{
		"s1": newShipStandby(t, net, "s1", storage.NewMemory()),
		"s2": newShipStandby(t, net, "s2", storage.NewMemory()),
	}
	p := newShipPrimary(t, net, "p", []clock.NodeID{"s1", "s2"}, AckQuorum)
	key := acct("A")
	if _, err := p.db.Append(key, []entity.Op{entity.Delta("balance", 10)}, ts(1), "p", ""); err != nil {
		t.Fatalf("quorum write: %v", err)
	}
	if standbys["s1"].Watermark(0)+standbys["s2"].Watermark(0) < 1 {
		t.Fatal("quorum write acked before any standby held it")
	}
	p.shipper.Drain()
	net.Quiesce()
	if st := p.shipper.Stats(); st.ShipFailures != 0 {
		t.Fatalf("reachable standbys recorded ship failures: %+v", st)
	}
	for id, sb := range standbys {
		if sb.Watermark(0) != 1 {
			t.Fatalf("standby %s watermark = %d, want 1", id, sb.Watermark(0))
		}
		if _, bal := promoteBalance(t, sb, nil, key); bal != 10 {
			t.Fatalf("standby %s promoted balance = %v, want 10", id, bal)
		}
	}
}

// A primary cut off from both standbys is the minority side: its quorum
// write is refused with ErrStandbyAcks and reaches no standby, while the
// majority side — a standby promoted over the other — still takes quorum
// writes.
func TestQuorumWriteFailsOnMinoritySide(t *testing.T) {
	net := netsim.New(netsim.Config{UnreachableDelay: time.Millisecond})
	defer net.Close()
	s1 := newShipStandby(t, net, "s1", storage.NewMemory())
	s2 := newShipStandby(t, net, "s2", storage.NewMemory())
	p := newShipPrimary(t, net, "p", []clock.NodeID{"s1", "s2"}, AckQuorum)
	net.Partition([]clock.NodeID{"p"}, []clock.NodeID{"s1", "s2"})
	key := acct("A")
	_, err := p.db.Append(key, []entity.Op{entity.Delta("balance", 10)}, ts(1), "p", "")
	if !errors.Is(err, ErrStandbyAcks) {
		t.Fatalf("want ErrStandbyAcks, got %v", err)
	}
	p.shipper.Drain()
	net.Quiesce()
	if st := p.shipper.Stats(); st.SyncAcks != 0 || st.ShipFailures == 0 {
		t.Fatalf("minority-side stats = %+v, want no acks and some failures", st)
	}
	if s1.Watermark(0) != 0 || s2.Watermark(0) != 0 {
		t.Fatalf("refused write reached a standby: s1=%d s2=%d", s1.Watermark(0), s2.Watermark(0))
	}

	// The majority side still accepts writes.
	dbs, err := promote(s1, []clock.NodeID{"s2"}, lsdb.Options{Node: "s1"}, accountType())
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	db := dbs[0]
	sh := NewShipper(ShipperOptions{
		Self:     "s1",
		Standbys: []clock.NodeID{"s2"},
		Mode:     AckQuorum,
		Timeout:  250 * time.Millisecond,
		Net:      net,
		Source:   func(unit int, after uint64, limit int) []lsdb.Record { return db.RecordsAfterN(after, limit) },
	})
	defer sh.Close()
	db.SetCommitSink(sh.Sink(0))
	if _, err := db.Append(key, []entity.Op{entity.Delta("balance", 7)}, ts(2), "s1", ""); err != nil {
		t.Fatalf("majority write: %v", err)
	}
	if s2.Watermark(0) != 1 {
		t.Fatalf("majority write not held by s2: watermark = %d", s2.Watermark(0))
	}
}

// Synchronous shipping needs every standby: with all reachable the write
// returns held by both, and with one cut off even the majority side refuses
// (the availability cost of synchronous backup commit).
func TestSyncAllRequiresEveryPeer(t *testing.T) {
	net := netsim.New(netsim.Config{UnreachableDelay: time.Millisecond})
	defer net.Close()
	s1 := newShipStandby(t, net, "s1", storage.NewMemory())
	s2 := newShipStandby(t, net, "s2", storage.NewMemory())
	p := newShipPrimary(t, net, "p", []clock.NodeID{"s1", "s2"}, AckSync)
	key := acct("A")
	if _, err := p.db.Append(key, []entity.Op{entity.Delta("balance", 1)}, ts(1), "p", ""); err != nil {
		t.Fatalf("sync write: %v", err)
	}
	if s1.Watermark(0) != 1 || s2.Watermark(0) != 1 {
		t.Fatalf("sync write returned before both standbys held it: s1=%d s2=%d", s1.Watermark(0), s2.Watermark(0))
	}
	net.Partition([]clock.NodeID{"s2"}, []clock.NodeID{"p", "s1"})
	if _, err := p.db.Append(key, []entity.Op{entity.Delta("balance", 1)}, ts(2), "p", ""); !errors.Is(err, ErrStandbyAcks) {
		t.Fatalf("want ErrStandbyAcks, got %v", err)
	}
	p.shipper.Drain()
	net.Quiesce()
	if s1.Watermark(0) != 2 || s2.Watermark(0) != 1 {
		t.Fatalf("watermarks after partition: s1=%d s2=%d, want 2 and 1", s1.Watermark(0), s2.Watermark(0))
	}
}

// Lost asynchronous batches leave a hole the standby can see (a later LSN
// arrives first) and catch-up heals it from the primary's log.
func TestAsyncLossGapDetectionAndCatchUp(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	sb := newShipStandby(t, net, "s1", storage.NewMemory())
	p := newShipPrimary(t, net, "p", []clock.NodeID{"s1"}, AckAsync)
	key := acct("A1")

	net.SetLinkFault("p", "s1", netsim.LinkFault{Loss: 1})
	for i := 0; i < 3; i++ {
		if _, err := p.db.Append(key, []entity.Op{entity.Delta("balance", 10)}, ts(int64(i+1)), "p", ""); err != nil {
			t.Fatal(err)
		}
	}
	// Async ships ride the lanes: drain them while the loss fault is still
	// set, so the first three batches are really lost.
	p.shipper.Drain()
	net.ClearLinkFaults()
	if _, err := p.db.Append(key, []entity.Op{entity.Delta("balance", 1)}, ts(4), "p", ""); err != nil {
		t.Fatal(err)
	}
	p.shipper.Drain()
	net.Quiesce()

	if got := sb.Watermark(0); got != 0 {
		t.Fatalf("watermark after losses = %d, want 0 (LSNs 1-3 missing)", got)
	}
	if st := sb.Stats(); st.Gaps == 0 {
		t.Fatalf("standby did not notice the hole: %+v", st)
	}
	n, err := sb.CatchUp("p", 0)
	if err != nil {
		t.Fatalf("CatchUp: %v", err)
	}
	if n == 0 {
		t.Fatal("catch-up returned no records")
	}
	if got := sb.Watermark(0); got != 4 {
		t.Fatalf("watermark after catch-up = %d, want 4", got)
	}
	if st := p.shipper.Stats(); st.CatchupServed == 0 {
		t.Fatalf("primary served no catch-up: %+v", st)
	}
	_, bal := promoteBalance(t, sb, nil, key)
	if bal != 31 {
		t.Fatalf("promoted balance = %v, want 31", bal)
	}
}

// A standby over a WAL persists its replication watermark and resumes its
// progress from the durable log after a restart, deduplicating overlap.
func TestStandbyResumesProgressFromDurableLog(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "standby-unit-0")
	wal, err := storage.OpenWAL(storage.WALOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	net := netsim.New(netsim.Config{})
	defer net.Close()
	sb := newShipStandby(t, net, "s1", wal)
	p := newShipPrimary(t, net, "p", []clock.NodeID{"s1"}, AckSync)
	key := acct("A1")
	for i := 0; i < 3; i++ {
		if _, err := p.db.Append(key, []entity.Op{entity.Delta("balance", 10)}, ts(int64(i+1)), "p", ""); err != nil {
			t.Fatal(err)
		}
	}
	if got := manifestReplicated(t, dir); got != 3 {
		t.Fatalf("durable replication watermark = %d, want 3", got)
	}
	// Restart: close the receiver's WAL, reopen the directory, rebuild the
	// standby over it. Progress must come back from the log itself.
	sb.Stop()
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	wal2, err := storage.OpenWAL(storage.WALOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	sb2 := newShipStandby(t, net, "s1", wal2)
	if got := sb2.Watermark(0); got != 3 {
		t.Fatalf("restarted standby watermark = %d, want 3", got)
	}
	// The primary keeps shipping; a full catch-up overlaps the restored log
	// and must not duplicate records.
	if _, err := p.db.Append(key, []entity.Op{entity.Delta("balance", 1)}, ts(4), "p", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := sb2.CatchUp("p", 0); err != nil {
		t.Fatal(err)
	}
	if got := sb2.Watermark(0); got != 4 {
		t.Fatalf("watermark = %d, want 4", got)
	}
	_, bal := promoteBalance(t, sb2, nil, key)
	if bal != 31 {
		t.Fatalf("promoted balance = %v, want 31", bal)
	}
}

// manifestReplicated reads the replication watermark recorded in the
// manifest (CHECKPOINT, JSON) of the WAL in dir.
func manifestReplicated(t *testing.T, dir string) uint64 {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "CHECKPOINT"))
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Replicated uint64 `json:"replicated"`
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	return man.Replicated
}

// Under quorum, consecutive writes can be acked by different standbys; no
// single standby holds every acked write. Promotion must union the surviving
// logs before replaying, or acked writes would be lost.
func TestPromoteUnionsQuorumSplitAcrossStandbys(t *testing.T) {
	net := netsim.New(netsim.Config{UnreachableDelay: time.Millisecond})
	defer net.Close()
	s1 := newShipStandby(t, net, "s1", storage.NewMemory())
	s2 := newShipStandby(t, net, "s2", storage.NewMemory())
	p := newShipPrimary(t, net, "p", []clock.NodeID{"s1", "s2"}, AckQuorum)
	key := acct("A1")

	net.SetLinkFault("p", "s2", netsim.LinkFault{Block: true})
	if _, err := p.db.Append(key, []entity.Op{entity.Delta("balance", 10)}, ts(1), "p", "t1"); err != nil {
		t.Fatalf("write acked by s1 only: %v", err)
	}
	// Quorum returns at the first ack; the blocked lane is still retrying in
	// the background. Drain it while the fault is set so the constructed
	// split survives (a retry after the clear would heal it).
	p.shipper.Drain()
	net.ClearLinkFaults()
	net.SetLinkFault("p", "s1", netsim.LinkFault{Block: true})
	if _, err := p.db.Append(key, []entity.Op{entity.Delta("balance", 5)}, ts(2), "p", "t2"); err != nil {
		t.Fatalf("write acked by s2 only: %v", err)
	}
	p.shipper.Drain()
	net.ClearLinkFaults()
	if s1.Watermark(0) != 1 || s2.Watermark(0) != 0 {
		t.Fatalf("split setup wrong: s1=%d s2=%d", s1.Watermark(0), s2.Watermark(0))
	}

	// Primary dies; s1 promotes, pulling what s2 holds.
	db, bal := promoteBalance(t, s1, []clock.NodeID{"s2"}, key)
	if bal != 15 {
		t.Fatalf("promoted balance = %v, want 15 (union of both acked writes)", bal)
	}
	// The promoted store resumes the LSN sequence past everything replayed.
	res, err := db.Append(key, []entity.Op{entity.Delta("balance", 1)}, ts(3), "s1", "t3")
	if err != nil {
		t.Fatal(err)
	}
	if res.Record.LSN != 3 {
		t.Fatalf("post-promotion LSN = %d, want 3", res.Record.LSN)
	}
	// A stopped standby refuses the old stream.
	if _, _, err := s1.Receive(ShipBatch{From: "p", Unit: 0, Records: []lsdb.Record{{LSN: 99}}}); err == nil {
		t.Fatal("stopped standby accepted a batch")
	}
}

func TestParseAckMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want AckMode
	}{{"async", AckAsync}, {"", AckAsync}, {"sync", AckSync}, {"quorum", AckQuorum}} {
		got, err := ParseAckMode(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseAckMode(%q) = %v, %v", tc.in, got, err)
		}
		if tc.in != "" && got.String() != tc.in {
			t.Fatalf("String() = %q, want %q", got.String(), tc.in)
		}
	}
	if _, err := ParseAckMode("bogus"); err == nil {
		t.Fatal("bogus mode accepted")
	}
}
