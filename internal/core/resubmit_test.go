package core

import (
	"testing"

	"repro/internal/entity"
	"repro/internal/process"
	"repro/internal/queue"
)

// Exactly-once resubmission is log state (docs/CONCURRENCY.md): the step of
// a submitted event runs under "<event name>@<TxnID>", an id its entity's
// record keeps, so a resubmission is refused for as long as that record is
// retained — across a restart too — and applies again once it is not.

// depositProcess is a one-step process: "deposit" adds 1 to an account.
func depositProcess() *process.Definition {
	return process.NewDefinition("deposits").Step("deposit", func(ctx *process.StepContext) error {
		return ctx.Txn.Update(ctx.Event.Entity, entity.Delta("balance", 1))
	})
}

// openDeposits bootstraps a kernel with the deposit process defined.
func openDeposits(t *testing.T, opts Options) *Kernel {
	t.Helper()
	k := newKernel(t, opts)
	if err := k.DefineProcess(depositProcess()); err != nil {
		t.Fatal(err)
	}
	return k
}

// deposit submits a deposit to key under txnID and drains.
func deposit(t *testing.T, k *Kernel, key entity.Key, txnID string) {
	t.Helper()
	if err := k.Submit(queue.Event{Name: "deposit", Entity: key, TxnID: txnID}); err != nil {
		t.Fatal(err)
	}
	k.Drain()
}

func TestResubmissionAfterRestartIsRefused(t *testing.T) {
	opts := Options{Node: "dup", Units: 1, DataDir: t.TempDir()}
	k := openDeposits(t, opts)
	key := accountKey("A1")
	deposit(t, k, key, "client-dup-1")
	deposit(t, k, key, "client-dup-1")
	if b := balanceOf(t, k, key); b != 1 {
		t.Fatalf("balance %v live, want 1", b)
	}
	k.Close()

	k = openDeposits(t, opts)
	deposit(t, k, key, "client-dup-1")
	if b := balanceOf(t, k, key); b != 1 {
		t.Fatalf("balance %v after restart, want 1: the resubmission applied again", b)
	}
}

// The window ends where the record stops being retained: on a live node at
// Compact, and across a restart at the last flush, which folds the records
// it covers into a summary that carries no ids.
func TestResubmissionAppliesAgainPastItsWindow(t *testing.T) {
	key := accountKey("A1")
	t.Run("checkpoint+restart", func(t *testing.T) {
		opts := Options{Node: "dup", Units: 1, DataDir: t.TempDir()}
		k := openDeposits(t, opts)
		deposit(t, k, key, "client-dup-1")
		if err := k.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		deposit(t, k, key, "client-dup-1")
		if b := balanceOf(t, k, key); b != 1 {
			t.Fatalf("balance %v after a flush on the live node, want 1", b)
		}
		k.Close()
		k = openDeposits(t, opts)
		deposit(t, k, key, "client-dup-1")
		if b := balanceOf(t, k, key); b != 2 {
			t.Fatalf("balance %v after flush + restart, want 2", b)
		}
	})
	t.Run("compact", func(t *testing.T) {
		k := openDeposits(t, Options{Node: "dup", Units: 1})
		deposit(t, k, key, "client-dup-1")
		if k.Compact() == 0 {
			t.Fatal("nothing compacted")
		}
		deposit(t, k, key, "client-dup-1")
		if b := balanceOf(t, k, key); b != 2 {
			t.Fatalf("balance %v after Compact, want 2", b)
		}
	})
}
