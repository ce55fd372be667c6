package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/entity"
	"repro/internal/netsim"
	"repro/internal/replica"
	"repro/internal/storage"
	"repro/internal/workload"
)

// newStandbyFor builds a log-receiving standby with one in-memory backend per
// kernel unit.
func newStandbyFor(t *testing.T, net *netsim.Network, self clock.NodeID, units int) *replica.Standby {
	t.Helper()
	backends := make([]storage.Backend, units)
	for i := range backends {
		backends[i] = storage.NewMemory()
	}
	sb, err := replica.NewStandby(replica.StandbyOptions{Self: self, Net: net, Backends: backends})
	if err != nil {
		t.Fatalf("NewStandby: %v", err)
	}
	return sb
}

// A replicated kernel ships every unit's commits; promoting the standby
// yields a kernel with identical entity states, identical per-entity version
// order, and a continuing LSN sequence.
func TestReplicatedKernelShipsAndPromotes(t *testing.T) {
	const units = 3
	net := netsim.New(netsim.Config{})
	defer net.Close()
	sb := newStandbyFor(t, net, "s1", units)
	k := newKernel(t, Options{
		Node:  "p",
		Units: units,
		Replication: &ReplicationOptions{
			Standbys: []clock.NodeID{"s1"},
			Ack:      replica.AckSync,
			Net:      net,
		},
	})

	// Spread writes across entities (and therefore units), several versions
	// each so per-entity order is observable.
	keys := make([]entity.Key, 6)
	for i := range keys {
		keys[i] = accountKey(fmt.Sprintf("A%d", i))
		for v := 0; v < 4; v++ {
			if _, err := k.Update(keys[i], entity.Delta("balance", float64(v+1)), entity.Set("owner", fmt.Sprintf("v%d", v))); err != nil {
				t.Fatalf("Update %s v%d: %v", keys[i], v, err)
			}
		}
	}
	rs := k.ReplicaStats()
	if !rs.Enabled || rs.Mode != "sync" || rs.Standbys != 1 {
		t.Fatalf("ReplicaStats = %+v", rs)
	}
	if rs.Ship.BatchesShipped == 0 || rs.Ship.ShipFailures != 0 {
		t.Fatalf("shipping counters wrong: %+v", rs.Ship)
	}

	// Capture the primary's per-entity version order, then lose it.
	wantOrder := map[entity.Key][]string{}
	for _, key := range keys {
		h, err := k.History(key)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range h.Versions {
			wantOrder[key] = append(wantOrder[key], v.TxnID)
		}
	}
	k.Close()

	promoted, err := PromoteStandby(sb, nil, Options{Node: "s1"})
	if err != nil {
		t.Fatalf("PromoteStandby: %v", err)
	}
	defer promoted.Close()
	if err := promoted.RegisterTypes(workload.Types()...); err != nil {
		t.Fatal(err)
	}
	for _, key := range keys {
		st, err := promoted.Read(key)
		if err != nil {
			t.Fatalf("promoted Read %s: %v", key, err)
		}
		if st.Float("balance") != 10 || st.StringField("owner") != "v3" {
			t.Fatalf("promoted state %s = balance %v owner %q", key, st.Float("balance"), st.StringField("owner"))
		}
		h, err := promoted.History(key)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, v := range h.Versions {
			got = append(got, v.TxnID)
		}
		if fmt.Sprint(got) != fmt.Sprint(wantOrder[key]) {
			t.Fatalf("per-entity order diverged on %s:\n got %v\nwant %v", key, got, wantOrder[key])
		}
	}
	// The promoted kernel is a live primary: writes continue.
	if _, err := promoted.Update(keys[0], entity.Delta("balance", 1)); err != nil {
		t.Fatalf("write on promoted kernel: %v", err)
	}
	st, _ := promoted.Read(keys[0])
	if st.Float("balance") != 11 {
		t.Fatalf("balance after post-promotion write = %v, want 11", st.Float("balance"))
	}
}

// Promises and their withdrawals travel the shipped log too: a broken promise
// on the primary is a withdrawn record on the promoted standby.
func TestReplicationShipsTentativeWithdrawals(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	sb := newStandbyFor(t, net, "s1", 1)
	k := newKernel(t, Options{
		Node:  "p",
		Units: 1,
		Replication: &ReplicationOptions{
			Standbys: []clock.NodeID{"s1"},
			Ack:      replica.AckSync,
			Net:      net,
		},
	})
	inv := invKey("I1")
	if _, err := k.Update(inv, entity.Set("stock", 10)); err != nil {
		t.Fatal(err)
	}
	p1, err := k.UpdateTentative(inv, "partner-1", "reservation", 4, entity.Delta("stock", -4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.UpdateTentative(inv, "partner-2", "reservation", 3, entity.Delta("stock", -3)); err != nil {
		t.Fatal(err)
	}
	// Break one promise: the settlement ships like any record.
	if _, err := k.BreakPromise(p1.ID, "stock damaged", "coupon"); err != nil {
		t.Fatal(err)
	}
	k.Close()

	promoted, err := PromoteStandby(sb, nil, Options{Node: "s1"})
	if err != nil {
		t.Fatalf("PromoteStandby: %v", err)
	}
	defer promoted.Close()
	if err := promoted.RegisterTypes(workload.Types()...); err != nil {
		t.Fatal(err)
	}
	st, err := promoted.Read(inv)
	if err != nil {
		t.Fatal(err)
	}
	if st.Float("stock") != 7 {
		t.Fatalf("promoted stock = %v, want 7 (10 - kept 3; broken 4 withdrawn)", st.Float("stock"))
	}
}

// A standby that cannot append what a peer sends it is not promoted without
// it: the peer's record is an acked write. The failed promotion leaves the
// standby receiving, so a retry after the fault window holds every acked
// write, and a peer that cannot be reached is still skipped.
func TestPromoteStandbyRefusesOnLocalCatchUpFailure(t *testing.T) {
	net := netsim.New(netsim.Config{UnreachableDelay: time.Millisecond})
	defer net.Close()
	disk := storage.NewFaultBackend(storage.NewMemory())
	s1, err := replica.NewStandby(replica.StandbyOptions{Self: "s1", Net: net, Backends: []storage.Backend{disk}})
	if err != nil {
		t.Fatal(err)
	}
	newStandbyFor(t, net, "s2", 1)
	k := newKernel(t, Options{
		Node:  "p",
		Units: 1,
		Replication: &ReplicationOptions{
			Standbys: []clock.NodeID{"s1", "s2"},
			Ack:      replica.AckQuorum,
			Net:      net,
		},
	})
	key := accountKey("A1")
	if _, err := k.Update(key, entity.Delta("balance", 10)); err != nil {
		t.Fatal(err)
	}
	k.shipper.Drain()
	net.SetLinkFault("p", "s1", netsim.LinkFault{Block: true})
	if _, err := k.Update(key, entity.Delta("balance", 5)); err != nil {
		t.Fatalf("write acked by p and s2: %v", err)
	}
	k.Close()
	net.ClearLinkFaults()
	if got := s1.Watermark(0); got != 1 {
		t.Fatalf("setup: s1 watermark = %d, want 1 (the +10 only)", got)
	}

	disk.FailAppends(1)
	if promoted, err := PromoteStandby(s1, []clock.NodeID{"s2"}, Options{Node: "s1"}); err == nil {
		promoted.Close()
		t.Fatal("promoted although s1 could not append the acked +5 that s2 sent it")
	}

	// The primary is gone for good; s2 still holds the +5.
	net.Partition([]clock.NodeID{"p"}, []clock.NodeID{"s1", "s2"})
	promoted, err := PromoteStandby(s1, []clock.NodeID{"p", "s2"}, Options{Node: "s1"})
	if err != nil {
		t.Fatalf("retry with the unreachable primary among the peers: %v", err)
	}
	defer promoted.Close()
	if err := promoted.RegisterTypes(workload.Types()...); err != nil {
		t.Fatal(err)
	}
	st, err := promoted.Read(key)
	if err != nil {
		t.Fatal(err)
	}
	if bal := st.Float("balance"); bal != 15 {
		t.Fatalf("promoted balance = %v, want 15 (both acked writes)", bal)
	}
}

// A kernel with misconfigured unit backends refuses to open rather than
// scattering units across wrong logs.
func TestUnitBackendsLengthValidated(t *testing.T) {
	_, err := Open(Options{Node: "x", Units: 2, UnitBackends: []storage.Backend{storage.NewMemory()}})
	if err == nil {
		t.Fatal("mismatched UnitBackends accepted")
	}
}
