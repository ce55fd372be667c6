package repro_test

import (
	"testing"

	"repro"
)

// TestFacadeEndToEnd exercises the public API the way the README quickstart
// does: bootstrap, focused writes, subjective reads, history, a process
// pipeline and a deferred aggregate.
func TestFacadeEndToEnd(t *testing.T) {
	k, err := repro.Bootstrap(repro.Options{Node: "facade", Units: 2}, repro.StandardTypes()...)
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	defer k.Close()

	acct := repro.Key{Type: "Account", ID: "ACC-1"}
	if _, err := k.Update(acct,
		repro.Set("owner", "Ada"),
		repro.Delta("balance", 250).Described("opening deposit"),
	); err != nil {
		t.Fatalf("Update: %v", err)
	}
	st, err := k.Read(acct)
	if err != nil || st.Float("balance") != 250 || st.StringField("owner") != "Ada" {
		t.Fatalf("Read: %+v %v", st, err)
	}
	h, err := k.History(acct)
	if err != nil || h.Len() != 1 {
		t.Fatalf("History: %v %v", h, err)
	}

	// Process pipeline through the facade types.
	def := repro.NewProcess("pay")
	def.Step("account.charge", func(ctx *repro.StepContext) error {
		return ctx.Txn.Update(ctx.Event.Entity, repro.Delta("balance", -50).Described("charge"))
	})
	if err := k.DefineProcess(def); err != nil {
		t.Fatal(err)
	}
	if err := k.Submit(repro.Event{Name: "account.charge", Entity: acct, TxnID: "charge-1"}); err != nil {
		t.Fatal(err)
	}
	if steps := k.Drain(); steps != 1 {
		t.Fatalf("Drain = %d", steps)
	}
	st, _ = k.Read(acct)
	if st.Float("balance") != 200 {
		t.Fatalf("balance = %v, want 200", st.Float("balance"))
	}

	// Deferred aggregate.
	k.DefineSumAggregate("balances", "Account", "balance", "")
	k.CatchUpAggregates()
	total, err := k.Sum("balances", "")
	if err != nil || total != 200 {
		t.Fatalf("Sum = %v %v", total, err)
	}
}

// TestFacadeTentativePromise exercises the apology-oriented API.
func TestFacadeTentativePromise(t *testing.T) {
	k, err := repro.Bootstrap(repro.Options{Node: "facade2"}, repro.StandardTypes()...)
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	book := repro.Key{Type: "Book", ID: "b1"}
	k.Update(book, repro.Set("stock", 1))
	p, err := k.UpdateTentative(book, "alice", "order-confirmation", 1, repro.Delta("stock", -1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.BreakPromise(p.ID, "warehouse fire", "refund"); err != nil {
		t.Fatal(err)
	}
	st, _ := k.Read(book)
	if st.Int("stock") != 1 {
		t.Fatalf("withdrawn reservation still visible: %d", st.Int("stock"))
	}
	if k.Metrics().Counter("apology.issued").Value() != 1 {
		t.Fatal("no apology recorded")
	}
}
