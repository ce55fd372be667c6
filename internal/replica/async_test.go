package replica

import (
	"errors"
	"testing"

	"repro/internal/clock"
	"repro/internal/entity"
	"repro/internal/netsim"
	"repro/internal/storage"
)

// logLen counts the records a standby's unit-0 log holds.
func logLen(t *testing.T, sb *Standby) int {
	t.Helper()
	recs, err := TailAfter(sb.Backends()[0], 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return len(recs)
}

// An async write is visible on the primary the moment it returns and reaches
// every standby through the shipping lanes alone, with no catch-up.
func TestEventualWriteReplicatesAsynchronously(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	standbys := []*Standby{
		newShipStandby(t, net, "s1", storage.NewMemory()),
		newShipStandby(t, net, "s2", storage.NewMemory()),
	}
	p := newShipPrimary(t, net, "p", []clock.NodeID{"s1", "s2"}, AckAsync)
	key := acct("A")
	if _, err := p.db.Append(key, []entity.Op{entity.Delta("balance", 100)}, ts(1), "p", ""); err != nil {
		t.Fatalf("Append: %v", err)
	}
	// Local state is immediately visible (subjective consistency).
	if st, _, err := p.db.Current(key); err != nil || st.Float("balance") != 100 {
		t.Fatalf("primary read: %v %v", st, err)
	}
	p.shipper.Drain()
	net.Quiesce()
	if st := p.shipper.Stats(); st.SyncAcks != 0 || st.ShipFailures != 0 {
		t.Fatalf("async shipping waited for acks or failed: %+v", st)
	}
	for _, sb := range standbys {
		if got := sb.Watermark(0); got != p.db.HeadLSN() {
			t.Fatalf("standby %s watermark = %d, want head %d", sb.ID(), got, p.db.HeadLSN())
		}
		if st := sb.Stats(); st.CatchupRounds != 0 || st.RecordsReceived != 1 {
			t.Fatalf("standby %s did not receive the write by shipping: %+v", sb.ID(), st)
		}
		if _, bal := promoteBalance(t, sb, nil, key); bal != 100 {
			t.Fatalf("standby %s promoted balance = %v, want 100", sb.ID(), bal)
		}
	}
}

// With every message lost the shipped batch never arrives, and catch-up
// repairs the standby once the network delivers again.
func TestAntiEntropyHealsLostMessages(t *testing.T) {
	net := netsim.New(netsim.Config{LossRate: 1.0, Seed: 3})
	defer net.Close()
	sb := newShipStandby(t, net, "s1", storage.NewMemory())
	p := newShipPrimary(t, net, "p", []clock.NodeID{"s1"}, AckAsync)
	key := acct("A")
	if _, err := p.db.Append(key, []entity.Op{entity.Delta("balance", 5)}, ts(1), "p", ""); err != nil {
		t.Fatal(err)
	}
	p.shipper.Drain()
	net.Quiesce()
	if got, st := sb.Watermark(0), sb.Stats(); got != 0 || st.BatchesReceived != 0 {
		t.Fatalf("write reached the standby through 100%% loss: watermark %d, %+v", got, st)
	}
	// Catch-up requests are lost too while the loss lasts.
	if _, err := sb.CatchUp("p", 0); !errors.Is(err, netsim.ErrDropped) {
		t.Fatalf("catch-up under 100%% loss: err = %v, want ErrDropped", err)
	}
	net.SetLossRate(0)
	n, err := sb.CatchUp("p", 0)
	if err != nil || n != 1 {
		t.Fatalf("catch-up after the loss: %d records, %v; want 1", n, err)
	}
	if got := sb.Watermark(0); got != p.db.HeadLSN() {
		t.Fatalf("watermark after catch-up = %d, want head %d", got, p.db.HeadLSN())
	}
	if _, bal := promoteBalance(t, sb, nil, key); bal != 5 {
		t.Fatalf("promoted balance = %v, want 5", bal)
	}
}

// A primary cut off from every standby keeps taking async writes (principle
// 2.11); the standbys lag while the partition lasts and, after the heal,
// catch up to the full log with no write lost.
func TestPartitionedEventualStaysAvailableAndConvergesAfterHeal(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	standbys := []*Standby{
		newShipStandby(t, net, "s1", storage.NewMemory()),
		newShipStandby(t, net, "s2", storage.NewMemory()),
	}
	p := newShipPrimary(t, net, "p", []clock.NodeID{"s1", "s2"}, AckAsync)
	key := acct("A")
	net.Partition([]clock.NodeID{"p"}, []clock.NodeID{"s1", "s2"})
	for i, amount := range []float64{1, 2} {
		if _, err := p.db.Append(key, []entity.Op{entity.Delta("balance", amount)}, ts(int64(i+1)), "p", ""); err != nil {
			t.Fatalf("write %d rejected during the partition: %v", i, err)
		}
	}
	p.shipper.Drain()
	net.Quiesce()
	for _, sb := range standbys {
		if got := sb.Watermark(0); got != 0 {
			t.Fatalf("standby %s watermark = %d during the partition, want 0", sb.ID(), got)
		}
		if _, err := sb.CatchUp("p", 0); !errors.Is(err, netsim.ErrUnreachable) {
			t.Fatalf("catch-up across the partition: err = %v, want ErrUnreachable", err)
		}
	}
	net.Heal()
	for _, sb := range standbys {
		if _, err := sb.CatchUp("p", 0); err != nil {
			t.Fatalf("catch-up on %s: %v", sb.ID(), err)
		}
		if got := sb.Watermark(0); got != p.db.HeadLSN() {
			t.Fatalf("standby %s watermark = %d after heal, want head %d", sb.ID(), got, p.db.HeadLSN())
		}
	}
	if _, bal := promoteBalance(t, standbys[1], nil, key); bal != 3 {
		t.Fatalf("promoted balance = %v, want 3 (no lost updates)", bal)
	}
}

// Receiving the same batch again — a retried ship, an overlapping catch-up —
// neither grows the standby's log nor changes the promoted state.
func TestDuplicateShipmentsAreIdempotent(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	sb := newShipStandby(t, net, "s1", storage.NewMemory())
	p := newShipPrimary(t, net, "p", []clock.NodeID{"s1"}, AckAsync)
	key := acct("A")
	if _, err := p.db.Append(key, []entity.Op{entity.Delta("balance", 10)}, ts(1), "p", ""); err != nil {
		t.Fatal(err)
	}
	p.shipper.Drain()
	net.Quiesce()
	if got := logLen(t, sb); got != 1 {
		t.Fatalf("standby log holds %d records, want 1", got)
	}
	batch := ShipBatch{From: "p", Unit: 0, Records: p.db.RecordsAfterN(0, 0)}
	for i := 0; i < 5; i++ {
		if _, gap, err := sb.Receive(batch); err != nil || gap {
			t.Fatalf("redundant receive %d: gap=%v err=%v", i, gap, err)
		}
	}
	if _, err := sb.CatchUp("p", 0); err != nil {
		t.Fatal(err)
	}
	if got := logLen(t, sb); got != 1 {
		t.Fatalf("standby log grew to %d records, want 1", got)
	}
	if st := sb.Stats(); st.Duplicates != 5 || st.RecordsReceived != 1 {
		t.Fatalf("stats = %+v, want 5 duplicates and 1 record received", st)
	}
	if _, bal := promoteBalance(t, sb, nil, key); bal != 10 {
		t.Fatalf("duplicate application changed state: balance %v, want 10", bal)
	}
}
