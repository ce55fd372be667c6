package replica

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/entity"
	"repro/internal/lsdb"
	"repro/internal/netsim"
	"repro/internal/storage"
)

// fanoutPrimary builds a primary whose shipper options the test controls —
// the latency and chunking tests need non-default windows and chunk sizes.
func fanoutPrimary(t *testing.T, net *netsim.Network, standbys []clock.NodeID, mode AckMode, tweak func(*ShipperOptions)) *shipPrimary {
	t.Helper()
	db := lsdb.Open(lsdb.Options{Node: "p", Backend: storage.NewMemory(), Shards: 4})
	if err := db.RegisterType(accountType()); err != nil {
		t.Fatal(err)
	}
	opts := ShipperOptions{
		Self:     "p",
		Standbys: standbys,
		Mode:     mode,
		Timeout:  time.Second,
		Net:      net,
		Source:   func(unit int, after uint64, limit int) []lsdb.Record { return db.RecordsAfterN(after, limit) },
	}
	if tweak != nil {
		tweak(&opts)
	}
	sh := NewShipper(opts)
	db.SetCommitSink(sh.Sink(0))
	return &shipPrimary{db: db, shipper: sh}
}

// Quorum commits return at the majority ack, not the slowest lane: with two
// fast standbys and one behind a high-latency link, the commit latency tracks
// the fast acks while the slow lane still delivers in the background.
func TestQuorumReturnsAtMajorityNotSlowest(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	newShipStandby(t, net, "s1", storage.NewMemory())
	newShipStandby(t, net, "s2", storage.NewMemory())
	s3 := newShipStandby(t, net, "s3", storage.NewMemory())
	p := fanoutPrimary(t, net, []clock.NodeID{"s1", "s2", "s3"}, AckQuorum, nil)
	net.SetLinkFault("p", "s3", netsim.LinkFault{ExtraLatency: 100 * time.Millisecond})

	key := acct("A1")
	start := time.Now()
	if _, err := p.db.Append(key, []entity.Op{entity.Delta("balance", 10)}, ts(1), "p", "t1"); err != nil {
		t.Fatalf("quorum append: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 75*time.Millisecond {
		t.Fatalf("quorum commit took %v — waited on the slow lane (link RTT 200ms)", elapsed)
	}
	// The slow lane is still in flight; draining the shipper delivers it.
	p.shipper.Drain()
	if got := s3.Watermark(0); got != 1 {
		t.Fatalf("slow standby watermark after drain = %d, want 1", got)
	}
}

// Sync commits block on every standby's ack: the slowest lane sets the
// commit latency, and when Append returns the batch is on all of them.
func TestSyncReturnsAtSlowestAck(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	newShipStandby(t, net, "s1", storage.NewMemory())
	s2 := newShipStandby(t, net, "s2", storage.NewMemory())
	p := fanoutPrimary(t, net, []clock.NodeID{"s1", "s2"}, AckSync, nil)
	// ExtraLatency is per direction; slow both so the RTT is 60ms.
	net.SetLinkFault("p", "s2", netsim.LinkFault{ExtraLatency: 30 * time.Millisecond})
	net.SetLinkFault("s2", "p", netsim.LinkFault{ExtraLatency: 30 * time.Millisecond})

	start := time.Now()
	if _, err := p.db.Append(acct("A1"), []entity.Op{entity.Delta("balance", 10)}, ts(1), "p", "t1"); err != nil {
		t.Fatalf("sync append: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("sync commit returned in %v, before the slow lane's 60ms RTT could ack", elapsed)
	}
	if got := s2.Watermark(0); got != 1 {
		t.Fatalf("sync returned but slow standby watermark = %d, want 1", got)
	}
}

// A parked standby — link blocked, lane burning retries, breaker opening —
// must not delay commits the remaining standbys already satisfy. Ten quorum
// writes against a 3-standby set with one blocked stay fast throughout.
func TestParkedStandbyDoesNotDelaySatisfiedCommits(t *testing.T) {
	net := netsim.New(netsim.Config{UnreachableDelay: time.Millisecond})
	defer net.Close()
	newShipStandby(t, net, "s1", storage.NewMemory())
	newShipStandby(t, net, "s2", storage.NewMemory())
	s3 := newShipStandby(t, net, "s3", storage.NewMemory())
	p := fanoutPrimary(t, net, []clock.NodeID{"s1", "s2", "s3"}, AckQuorum, nil)
	net.SetLinkFault("p", "s3", netsim.LinkFault{Block: true})

	key := acct("A1")
	for i := 0; i < 10; i++ {
		start := time.Now()
		if _, err := p.db.Append(key, []entity.Op{entity.Delta("balance", 1)}, ts(int64(i+1)), "p", ""); err != nil {
			t.Fatalf("quorum append %d with one parked standby: %v", i, err)
		}
		if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
			t.Fatalf("append %d took %v — the parked lane's retries leaked into the commit path", i, elapsed)
		}
	}
	// Heal and converge: the parked standby catches up from the primary (its
	// breaker may still be open, so pull rather than wait for pushes).
	p.shipper.Drain()
	net.ClearLinkFaults()
	if _, err := s3.CatchUp("p", 0); err != nil {
		t.Fatalf("catch-up on healed standby: %v", err)
	}
	if got := s3.Watermark(0); got != 10 {
		t.Fatalf("healed standby watermark = %d, want 10", got)
	}
}

// gatedTransport parks every ship until the gate channel is closed — a
// deterministic stand-in for a standby that is slow to ack.
type gatedTransport struct {
	gate chan struct{}
}

func (g gatedTransport) Ship(peer clock.NodeID, batch ShipBatch, sync bool, timeout time.Duration) error {
	<-g.gate
	return nil
}

// The sink captures under the shard lock and waits outside it: while a sync
// commit is blocked on a standby's ack, reads on the same shard proceed.
// The ack is gated on a channel, so the interleaving is deterministic: the
// read happens while the commit is provably parked in its ack wait.
func TestReadsProceedWhileSyncShipWaits(t *testing.T) {
	gate := make(chan struct{})
	p := fanoutPrimary(t, nil, []clock.NodeID{"s1"}, AckSync, func(o *ShipperOptions) {
		o.Transport = gatedTransport{gate: gate}
	})
	defer p.shipper.Close()

	key := acct("A1")
	done := make(chan error, 1)
	go func() {
		_, err := p.db.Append(key, []entity.Op{entity.Delta("balance", 10)}, ts(1), "p", "t1")
		done <- err
	}()
	// Wait for the batch to be captured: from then on the commit is parked in
	// its ack wait and the shard lock must already be free.
	deadline := time.Now().Add(2 * time.Second)
	for p.shipper.Stats().BatchesShipped == 0 {
		if time.Now().After(deadline) {
			t.Fatal("ship was never captured")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("sync append returned (err=%v) while its ack was still gated", err)
	default:
	}
	readDone := make(chan error, 1)
	go func() {
		_, _, err := p.db.Current(key)
		readDone <- err
	}()
	select {
	case err := <-readDone:
		if err != nil {
			t.Fatalf("read during sync ship wait: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("read blocked while a sync commit was waiting — the ack wait is holding the shard lock")
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("sync append: %v", err)
	}
}

// Catch-up streams in bounded chunks: a 10-record tail over a chunk size of
// 4 takes three rounds, each resumable by the cursor the previous round
// advanced, and lands the full tail.
func TestStreamingCatchUpChunksAndResumes(t *testing.T) {
	net := netsim.New(netsim.Config{UnreachableDelay: time.Millisecond})
	defer net.Close()
	sb, err := NewStandby(StandbyOptions{
		Self:         "s1",
		Net:          net,
		Backends:     []storage.Backend{storage.NewMemory()},
		Timeout:      time.Second,
		CatchupChunk: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := fanoutPrimary(t, net, []clock.NodeID{"s1"}, AckAsync, func(o *ShipperOptions) { o.CatchupChunk = 4 })
	net.SetLinkFault("p", "s1", netsim.LinkFault{Block: true})
	key := acct("A1")
	for i := 0; i < 10; i++ {
		if _, err := p.db.Append(key, []entity.Op{entity.Delta("balance", 1)}, ts(int64(i+1)), "p", ""); err != nil {
			t.Fatal(err)
		}
	}
	p.shipper.Drain() // lose the pushes while the link is down
	net.ClearLinkFaults()

	n, err := sb.CatchUp("p", 0)
	if err != nil {
		t.Fatalf("CatchUp: %v", err)
	}
	if n != 10 {
		t.Fatalf("catch-up delivered %d records, want 10", n)
	}
	if got := sb.Watermark(0); got != 10 {
		t.Fatalf("watermark = %d, want 10", got)
	}
	st := sb.Stats()
	if st.CatchupRounds != 3 {
		t.Fatalf("catch-up rounds = %d, want 3 (chunks of 4,4,2)", st.CatchupRounds)
	}
	if ps := p.shipper.Stats(); ps.CatchupServed != 3 {
		t.Fatalf("primary CatchupServed = %d, want 3", ps.CatchupServed)
	}
}

// A chunked catch-up from a standby's log, and a repeated one, land each
// record once: withdrawals are settlement appends, so the receiver dedups
// everything by LSN and its log does not grow under repeated catch-up.
func TestCatchUpDoesNotReappendMarks(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	s1 := newShipStandby(t, net, "s1", storage.NewMemory())
	p := newShipPrimary(t, net, "p", []clock.NodeID{"s1"}, AckSync)
	key := acct("A1")
	for i := 0; i < 6; i++ {
		if _, err := p.db.Append(key, []entity.Op{entity.Delta("balance", 10)}, ts(int64(i+1)), "p", ""); err != nil {
			t.Fatal(err)
		}
	}
	for _, txn := range []string{"tent-1", "tent-2"} {
		if _, err := p.db.AppendPromise(key, []entity.Op{entity.Delta("balance", 100)}, ts(10), "p", txn, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := p.db.Append(key, []entity.Op{entity.BreakPromise(txn, "", "")}, ts(11), "p", ""); err != nil {
			t.Fatal(err)
		}
	}
	// s1's log now holds 8 appends and 2 settlements.
	tail1, err := TailAfter(s1.Backends()[0], 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail1) != 10 {
		t.Fatalf("mirror log holds %d records, want 10 (8 appends + 2 settlements)", len(tail1))
	}

	// A fresh standby pulls from the mirror in chunks of 2: five append
	// rounds, and the marks are offered again on every one of them.
	s2, err := NewStandby(StandbyOptions{
		Self:         "s2",
		Net:          net,
		Backends:     []storage.Backend{storage.NewMemory()},
		Timeout:      time.Second,
		CatchupChunk: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.CatchUp("s1", 0); err != nil {
		t.Fatalf("catch-up from mirror: %v", err)
	}
	count := func() int {
		tail, err := TailAfter(s2.Backends()[0], 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return len(tail)
	}
	if got := count(); got != 10 {
		t.Fatalf("chunked catch-up landed %d records, want 10 — records re-appended across rounds", got)
	}
	// Catching up again re-offers everything; the log must not grow.
	for round := 0; round < 3; round++ {
		if _, err := s2.CatchUp("s1", 0); err != nil {
			t.Fatalf("repeat catch-up %d: %v", round, err)
		}
	}
	if got := count(); got != 10 {
		t.Fatalf("log grew to %d records after repeated catch-up, want 10", got)
	}
	// Promotion replays cleanly: both tentative writes withdrawn exactly once.
	_, bal := promoteBalance(t, s2, nil, key)
	if bal != 60 {
		t.Fatalf("promoted balance = %v, want 60", bal)
	}
}

// streamCounter counts the records its StreamAfter scans deliver.
type streamCounter struct {
	*storage.Memory
	delivered int
}

func (c *streamCounter) StreamAfter(after uint64, fn func(storage.WALRecord) error) error {
	return c.Memory.StreamAfter(after, func(rec storage.WALRecord) error {
		c.delivered++
		return fn(rec)
	})
}

// A standby serving one catch-up chunk reads that chunk of its received log,
// not the whole tail behind the cursor: a WAL holds its lock for the length
// of a StreamAfter scan, so reading the whole tail per chunk blocks the
// standby's own appends and costs O(N²/limit) record reads over a stream.
func TestStandbyCatchupChunkReadsOnlyItsChunk(t *testing.T) {
	const held, limit = 5000, 100
	mem := storage.NewMemory()
	recs := make([]storage.WALRecord, held)
	for i := range recs {
		recs[i] = storage.WALRecord{LSN: uint64(i + 1), Key: acct("A1"), Ops: []entity.Op{entity.Delta("balance", 1)}, Stamp: ts(int64(i + 1)), Origin: "p"}
	}
	if err := mem.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	net := netsim.New(netsim.Config{})
	defer net.Close()
	counter := &streamCounter{Memory: mem}
	sb := newShipStandby(t, net, "s1", counter)
	chunk, more, err := sb.ServeCatchup(0, 0, limit)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunk) != limit || !more {
		t.Fatalf("chunk = %d records, more = %v; want %d and true", len(chunk), more, limit)
	}
	if counter.delivered > limit+1 {
		t.Fatalf("serving a %d-record chunk read %d of the %d held records", limit, counter.delivered, held)
	}
}
