package replica

import (
	"errors"
	"fmt"
	"testing"

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
// record — which the standby's log carries too once the partition heals,
// since each settlement is a record of its own.
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

	// Two promises from the stock: individually both fit (5-4 and 5-3);
	// together they overbook by 2 — the classic bookstore of principle 2.9.
	// Each is a tentative record carrying its terms; its txn id is its id.
	if _, err := p.db.AppendPromise(stock, []entity.Op{entity.Promise("reservation", "alice", 4), entity.Delta("balance", -4)}, ts(2), "p", "promise-a", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.db.AppendPromise(stock, []entity.Op{entity.Promise("reservation", "bob", 3), entity.Delta("balance", -3)}, ts(3), "p", "promise-b", 0); err != nil {
		t.Fatal(err)
	}

	if st, _, _ := p.db.Current(stock); st.Float("balance") != -2 {
		t.Fatalf("primary balance = %v, want -2 (both promises applied)", st.Float("balance"))
	}

	// Reconcile: honour promises first-come-first-served against the real
	// stock; the one that does not fit is broken with compensation. Each
	// settlement is one record naming its promise, and ships like any write.
	keep, brk := apology.ResolveOverbooking(p.db.Promises(stock), 5)
	if len(keep) != 1 || len(brk) != 1 {
		t.Fatalf("kept %d promises, %d apologies; want 1 and 1", len(keep), len(brk))
	}
	if brk[0].Partner != "bob" || keep[0].ID != "promise-a" {
		t.Fatalf("breaking %+v, want bob's promise (alice promised first)", brk[0])
	}
	if _, err := p.db.Append(stock, []entity.Op{entity.KeepPromise(keep[0].ID)}, ts(4), "p", "settle-a"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.db.Append(stock, []entity.Op{entity.BreakPromise(brk[0].ID, "overbooked during partition", "10% discount voucher")}, ts(5), "p", "settle-b"); err != nil {
		t.Fatal(err)
	}
	for _, rec := range p.db.RecordsFor(stock) {
		if rec.TxnID == "promise-a" && (rec.Tentative || rec.Obsolete) {
			t.Fatalf("alice's promise = tentative %v obsolete %v, want kept", rec.Tentative, rec.Obsolete)
		}
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
	var kept, broken int
	var apologies []string
	for _, rec := range db.RecordsFor(stock) {
		withdrawn[rec.TxnID] = rec.Obsolete
		if _, brk, ok := rec.Ops[0].Settles(); ok && brk {
			broken++
			apologies = append(apologies, rec.Ops[0].String())
		} else if ok {
			kept++
		}
	}
	if !withdrawn["promise-b"] || withdrawn["promise-a"] {
		t.Fatalf("promoted obsolete marks = %v, want only promise-b withdrawn", withdrawn)
	}
	if len(apologies) != 1 || apologies[0] != "apology for promise-b: overbooked during partition" {
		t.Fatalf("promoted apologies = %v, want bob's", apologies)
	}
	if rate := float64(broken) / float64(kept+broken); rate != 0.5 {
		t.Fatalf("apology rate = %v, want 0.5", rate)
	}
	if len(db.Promises(stock)) != 0 || len(p.db.Promises(stock)) != 0 {
		t.Fatalf("pending after reconciliation: promoted %v, primary %v", db.Promises(stock), p.db.Promises(stock))
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
	promise := func(id string) error {
		_, err := p.db.AppendPromise(stock, []entity.Op{entity.Promise("reservation", "", 1), entity.Delta("balance", -1)}, ts(2), "p", id, 2)
		return err
	}
	for i := 0; i < 2; i++ {
		if err := promise(fmt.Sprintf("promise-%d", i)); err != nil {
			t.Fatalf("promise %d refused below the limit: %v", i, err)
		}
	}
	if err := promise("promise-2"); !errors.Is(err, apology.ErrPromiseLimit) {
		t.Fatalf("err = %v, want ErrPromiseLimit", err)
	}
	// Settling one frees capacity for the next promise.
	pending := p.db.Promises(stock)
	if _, err := p.db.Append(stock, []entity.Op{entity.KeepPromise(pending[0].ID)}, ts(3), "p", "keep-0"); err != nil {
		t.Fatal(err)
	}
	if err := promise("promise-3"); err != nil {
		t.Fatalf("promise refused after capacity freed: %v", err)
	}
}
