package replica

import (
	"errors"
	"testing"
	"time"

	"repro/internal/apology"
	"repro/internal/clock"
	"repro/internal/entity"
	"repro/internal/netsim"
	"repro/internal/storage"
)

// Divergence under partition, reconciled with apologies (principles 2.1 and
// 2.9): the primary keeps promising from the same stock on local knowledge
// while its standby is cut off; the over-promise is visible at once; the
// resolution is not a rollback but first-come-first-served honouring, one
// broken promise, compensation, and withdrawal of the losing tentative
// record — which the standby's log carries too once the partition heals.
func TestDivergentTentativePromisesApologizedOnHeal(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	sb := newShipStandby(t, net, "s1", storage.NewMemory())
	p := newShipPrimary(t, net, "p", []clock.NodeID{"s1"}, AckAsync)
	stock := acct("book-stock")

	if _, err := p.db.Append(stock, []entity.Op{entity.Set("balance", 5)}, ts(1), "p", "seed"); err != nil {
		t.Fatal(err)
	}
	p.shipper.Drain()
	net.Quiesce()
	if got := sb.Watermark(0); got != 1 {
		t.Fatalf("standby watermark before the partition = %d, want 1", got)
	}

	net.Partition([]clock.NodeID{"p"}, []clock.NodeID{sb.ID()})

	// A deterministic promise clock so first-come-first-served is exact.
	now := time.Unix(1000, 0)
	tick := func() time.Time { now = now.Add(time.Second); return now }
	withdraw := func(pr apology.Promise, reason string) {
		// The infrastructure's compensation hook: the broken promise's
		// tentative record is withdrawn, and the mark ships like any write.
		if err := p.db.MarkObsolete(pr.Entity, pr.TxnID); err != nil {
			t.Errorf("withdrawing %s: %v", pr.TxnID, err)
		}
	}
	ledger := apology.NewLedger(apology.Options{Clock: tick, OnBreak: withdraw})

	// Two promises from the stock: individually both fit (5-4 and 5-3);
	// together they overbook by 2 — the classic bookstore of principle 2.9.
	if _, err := p.db.AppendTentative(stock, []entity.Op{entity.Delta("balance", -4)}, ts(2), "p", "promise-a"); err != nil {
		t.Fatal(err)
	}
	pa := ledger.Make(apology.Promise{Kind: "reservation", Entity: stock, TxnID: "promise-a", Partner: "alice", Quantity: 4})
	if _, err := p.db.AppendTentative(stock, []entity.Op{entity.Delta("balance", -3)}, ts(3), "p", "promise-b"); err != nil {
		t.Fatal(err)
	}
	ledger.Make(apology.Promise{Kind: "reservation", Entity: stock, TxnID: "promise-b", Partner: "bob", Quantity: 3})

	if st, _, _ := p.db.Current(stock); st.Float("balance") != -2 {
		t.Fatalf("primary balance = %v, want -2 (both promises applied)", st.Float("balance"))
	}

	// Reconcile: honour promises first-come-first-served against the real
	// stock; the one that does not fit is broken with compensation.
	kept, apologies, err := ledger.ResolveOverbooking(stock, 5, "overbooked during partition", "10% discount voucher")
	if err != nil {
		t.Fatal(err)
	}
	if kept != 1 || len(apologies) != 1 {
		t.Fatalf("kept %d promises, %d apologies; want 1 and 1", kept, len(apologies))
	}
	a := apologies[0]
	if a.Partner != "bob" || a.Compensation != "10% discount voucher" {
		t.Fatalf("apology = %+v, want bob compensated (alice promised first)", a)
	}
	if got, _ := ledger.Get(pa.ID); got.Status != apology.Kept {
		t.Fatalf("alice's promise = %s, want kept", got.Status)
	}
	p.shipper.Drain()
	net.Quiesce()
	if got := sb.Watermark(0); got != 1 {
		t.Fatalf("standby watermark during the partition = %d, want 1 (promises not shipped)", got)
	}

	// Heal: the standby catches up with the promises and the withdrawal, and
	// promoting it shows the reconciled stock.
	net.Heal()
	if _, err := sb.CatchUp("p", 0); err != nil {
		t.Fatal(err)
	}
	if got := sb.Watermark(0); got != p.db.HeadLSN() {
		t.Fatalf("standby watermark after heal = %d, want head %d", got, p.db.HeadLSN())
	}
	db, bal := promoteBalance(t, sb, nil, stock)
	if bal != 1 {
		t.Fatalf("promoted balance after apology = %v, want 1 (5 - kept 4)", bal)
	}
	withdrawn := map[string]bool{}
	for _, rec := range db.RecordsFor(stock) {
		withdrawn[rec.TxnID] = rec.Obsolete
	}
	if !withdrawn["promise-b"] || withdrawn["promise-a"] {
		t.Fatalf("promoted obsolete marks = %v, want only promise-b withdrawn", withdrawn)
	}
	if rate := ledger.ApologyRate(); rate != 0.5 {
		t.Fatalf("apology rate = %v, want 0.5", rate)
	}
}

// The promise limit is the up-front guardrail on the same machinery: once an
// entity carries its cap of pending promises, further ones are refused
// rather than becoming future apologies — even when replicas would accept
// the tentative write itself.
func TestPromiseLimitBoundsDivergenceExposure(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	newShipStandby(t, net, "s1", storage.NewMemory())
	p := newShipPrimary(t, net, "p", []clock.NodeID{"s1"}, AckAsync)
	stock := acct("limited-stock")
	if _, err := p.db.Append(stock, []entity.Op{entity.Set("balance", 100)}, ts(1), "p", "seed"); err != nil {
		t.Fatal(err)
	}
	ledger := apology.NewLedger(apology.Options{MaxPendingPerEntity: 2})
	for i := 0; i < 2; i++ {
		if _, err := ledger.MakeChecked(apology.Promise{Entity: stock, Quantity: 1}); err != nil {
			t.Fatalf("promise %d refused below the limit: %v", i, err)
		}
	}
	if _, err := ledger.MakeChecked(apology.Promise{Entity: stock, Quantity: 1}); !errors.Is(err, apology.ErrPromiseLimit) {
		t.Fatalf("err = %v, want ErrPromiseLimit", err)
	}
	// Settling one frees capacity for the next promise.
	pending := ledger.Pending()
	if err := ledger.Keep(pending[0].ID); err != nil {
		t.Fatal(err)
	}
	if _, err := ledger.MakeChecked(apology.Promise{Entity: stock, Quantity: 1}); err != nil {
		t.Fatalf("promise refused after capacity freed: %v", err)
	}
}
