package apology_test

// The promise lifecycle is log state, so these tests drive it through the
// kernel that keeps that log: a promise is the tentative record
// Kernel.UpdateTentative writes, and Keep/Break append the settlement that
// names it. The counts come from the kernel's promise.kept/promise.broken
// counters and its pending set; a promise's status from its record's flags.

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/apology"
	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/workload"
)

func book(id string) entity.Key { return entity.Key{Type: "Book", ID: id} }

func newKernel(t *testing.T, opts core.Options) *core.Kernel {
	t.Helper()
	k, err := core.Bootstrap(opts, workload.Types()...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(k.Close)
	return k
}

// promise makes a promise of quantity on key to partner.
func promise(t *testing.T, k *core.Kernel, key entity.Key, partner string, quantity float64) apology.Promise {
	t.Helper()
	p, err := k.UpdateTentative(key, partner, "order-confirmation", quantity, entity.Delta("stock", -quantity))
	if err != nil {
		t.Fatalf("promise to %s: %v", partner, err)
	}
	return p
}

// counts returns (pending, kept, broken).
func counts(k *core.Kernel) (int, uint64, uint64) {
	return len(k.Pending()), k.Metrics().Counter("promise.kept").Value(), k.Metrics().Counter("promise.broken").Value()
}

// apologyRate is broken / (kept + broken), zero before anything settled.
func apologyRate(k *core.Kernel) float64 {
	_, kept, broken := counts(k)
	if kept+broken == 0 {
		return 0
	}
	return float64(broken) / float64(kept+broken)
}

// status reads a promise's status from its record: "pending" while
// tentative, "kept" once its flag is cleared, "broken" once withdrawn.
func status(t *testing.T, k *core.Kernel, p apology.Promise) string {
	t.Helper()
	h, err := k.History(p.Entity)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range h.Versions {
		switch {
		case v.TxnID != p.TxnID:
		case v.Obsolete:
			return "broken"
		case v.Tentative:
			return "pending"
		default:
			return "kept"
		}
	}
	t.Fatalf("no record of promise %s", p.ID)
	return ""
}

func pendingFor(k *core.Kernel, key entity.Key) []apology.Promise {
	var out []apology.Promise
	for _, p := range k.Pending() {
		if p.Entity == key {
			out = append(out, p)
		}
	}
	return out
}

func TestMakeKeepBreakLifecycle(t *testing.T) {
	k := newKernel(t, core.Options{Node: "n"})
	p := promise(t, k, book("b1"), "alice", 1)
	if p.ID == "" || p.ID != p.TxnID || status(t, k, p) != "pending" {
		t.Fatalf("UpdateTentative returned %+v", p)
	}
	got := pendingFor(k, book("b1"))
	if len(got) != 1 || got[0].ID != p.ID || got[0].Partner != "alice" {
		t.Fatalf("pending: %+v", got)
	}
	if err := k.KeepPromise(p.ID); err != nil {
		t.Fatalf("Keep: %v", err)
	}
	if err := k.KeepPromise(p.ID); !errors.Is(err, apology.ErrAlreadySettled) {
		t.Fatalf("double Keep: %v", err)
	}
	if _, err := k.BreakPromise(p.ID, "too late", ""); !errors.Is(err, apology.ErrAlreadySettled) {
		t.Fatalf("Break after Keep: %v", err)
	}
	if pending, kept, broken := counts(k); pending != 0 || kept != 1 || broken != 0 {
		t.Fatalf("Counts = %d/%d/%d", pending, kept, broken)
	}
	if apologyRate(k) != 0 {
		t.Fatalf("ApologyRate = %v", apologyRate(k))
	}
}

// Breaking a promise issues the apology and withdraws the tentative record:
// the apology itself is in the log, as the settlement record.
func TestBreakIssuesApologyAndHook(t *testing.T) {
	k := newKernel(t, core.Options{Node: "n"})
	k.Update(book("b1"), entity.Set("stock", 3))
	p := promise(t, k, book("b1"), "bob", 1)
	a, err := k.BreakPromise(p.ID, "out of stock", "10% discount on next order")
	if err != nil {
		t.Fatalf("Break: %v", err)
	}
	if a.Partner != "bob" || a.Reason != "out of stock" {
		t.Fatalf("apology = %+v", a)
	}
	if !strings.Contains(a.String(), "compensation") {
		t.Fatalf("apology text: %s", a)
	}
	// The withdrawal: the reservation left the rollup, the record stays.
	if st, _ := k.Read(book("b1")); st.Int("stock") != 3 || status(t, k, p) != "broken" {
		t.Fatalf("after Break: stock %d, promise %s", st.Int("stock"), status(t, k, p))
	}
	h, _ := k.History(book("b1"))
	var logged []string
	for _, v := range h.Versions {
		for _, op := range v.Ops {
			if strings.HasPrefix(op.String(), "apology for "+p.ID) {
				logged = append(logged, op.Describe)
			}
		}
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "out of stock") {
		t.Fatalf("apologies in the log = %v", logged)
	}
	if k.Metrics().Counter("apology.issued").Value() != 1 {
		t.Fatalf("apology.issued = %d", k.Metrics().Counter("apology.issued").Value())
	}
	if apologyRate(k) != 1.0 {
		t.Fatalf("ApologyRate = %v", apologyRate(k))
	}
}

func TestUnknownPromiseErrors(t *testing.T) {
	k := newKernel(t, core.Options{Node: "n"})
	for _, p := range k.Pending() {
		if p.ID == "nope" {
			t.Fatal("unknown promise is pending")
		}
	}
	if err := k.KeepPromise("nope"); !errors.Is(err, apology.ErrUnknownPromise) {
		t.Fatal("Keep should fail")
	}
	if _, err := k.BreakPromise("nope", "r", ""); !errors.Is(err, apology.ErrUnknownPromise) {
		t.Fatal("Break should fail")
	}
}

func TestPendingOrderedByTime(t *testing.T) {
	k := newKernel(t, core.Options{Node: "n"})
	first := promise(t, k, book("b"), "p1", 1)
	second := promise(t, k, book("b"), "p2", 1)
	pending := k.Pending()
	if len(pending) != 2 || pending[0].ID != first.ID || pending[1].ID != second.ID {
		t.Fatalf("Pending order wrong: %+v", pending)
	}
	promise(t, k, book("other"), "p3", 1)
	if forB := pendingFor(k, book("b")); len(forB) != 2 {
		t.Fatalf("PendingFor = %+v", forB)
	}
}

func TestResolveOverbookingKeepsFIFO(t *testing.T) {
	// The paper's example: only 5 copies of the book, more than 5 sold.
	k := newKernel(t, core.Options{Node: "n"})
	var ps []apology.Promise
	for i := 0; i < 8; i++ {
		ps = append(ps, promise(t, k, book("bestseller"), fmt.Sprintf("customer-%d", i), 1))
	}
	kept, apologies, err := k.ResolveOverbooking(book("bestseller"), 5, "only 5 copies in stock", "full refund")
	if err != nil {
		t.Fatalf("ResolveOverbooking: %v", err)
	}
	if kept != 5 || len(apologies) != 3 {
		t.Fatalf("kept=%d apologies=%d", kept, len(apologies))
	}
	// The first five promises (FIFO) were honoured.
	for i := 0; i < 5; i++ {
		if s := status(t, k, ps[i]); s != "kept" {
			t.Fatalf("promise %d status = %s", i, s)
		}
	}
	for i := 5; i < 8; i++ {
		if s := status(t, k, ps[i]); s != "broken" {
			t.Fatalf("promise %d status = %s", i, s)
		}
	}
	if rate := apologyRate(k); rate != 3.0/8.0 {
		t.Fatalf("ApologyRate = %v", rate)
	}
}

func TestResolveOverbookingWithQuantities(t *testing.T) {
	k := newKernel(t, core.Options{Node: "n"})
	promise(t, k, book("widget"), "a", 3)
	promise(t, k, book("widget"), "b", 4)
	promise(t, k, book("widget"), "c", 2)
	kept, apologies, err := k.ResolveOverbooking(book("widget"), 5, "capacity", "")
	if err != nil {
		t.Fatal(err)
	}
	// a (3) fits, b (4) does not (only 2 left), c (2) fits.
	if kept != 2 || len(apologies) != 1 || apologies[0].Partner != "b" {
		t.Fatalf("kept=%d apologies=%+v", kept, apologies)
	}
}

func TestResolveOverbookingZeroQuantityTreatedAsOne(t *testing.T) {
	k := newKernel(t, core.Options{Node: "n"})
	promise(t, k, book("x"), "a", 0)
	promise(t, k, book("x"), "b", 0)
	kept, apologies, err := k.ResolveOverbooking(book("x"), 1, "capacity", "")
	if err != nil || kept != 1 || len(apologies) != 1 {
		t.Fatalf("kept=%d apologies=%d err=%v", kept, len(apologies), err)
	}
}

func TestConcurrentMakeAndSettle(t *testing.T) {
	k := newKernel(t, core.Options{Node: "n"})
	const n = 200
	var wg sync.WaitGroup
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := k.UpdateTentative(book("b"), fmt.Sprintf("p%d", i), "k", 1, entity.Delta("stock", -1))
			if err != nil {
				t.Error(err)
			}
			ids[i] = p.ID
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				k.KeepPromise(ids[i])
			} else {
				k.BreakPromise(ids[i], "r", "")
			}
		}(i)
	}
	wg.Wait()
	if pending, kept, broken := counts(k); pending != 0 || kept != n/2 || broken != n/2 {
		t.Fatalf("counts = %d/%d/%d", pending, kept, broken)
	}
	if apologyRate(k) != 0.5 {
		t.Fatalf("rate = %v", apologyRate(k))
	}
}

func TestPromiseLimitExhaustion(t *testing.T) {
	k := newKernel(t, core.Options{Node: "n", PromiseLimit: 2})
	// Fill the entity to its limit.
	p1 := promise(t, k, book("b1"), "alice", 1)
	promise(t, k, book("b1"), "bob", 1)
	// The third promise on the same entity is refused...
	if _, err := k.UpdateTentative(book("b1"), "carol", "k", 1); !errors.Is(err, apology.ErrPromiseLimit) {
		t.Fatalf("third promise: want ErrPromiseLimit, got %v", err)
	}
	// ...and registers nothing.
	if pending, _, _ := counts(k); pending != 2 {
		t.Fatalf("pending after refusal = %d, want 2", pending)
	}
	// Another entity is unaffected: the limit is per entity.
	promise(t, k, book("b2"), "carol", 1)
	// Settling a promise frees capacity — kept or broken both count.
	if err := k.KeepPromise(p1.ID); err != nil {
		t.Fatal(err)
	}
	promise(t, k, book("b1"), "carol", 1)
}

func TestPromiseLimitUnlimitedByDefault(t *testing.T) {
	k := newKernel(t, core.Options{Node: "n"})
	for i := 0; i < 100; i++ {
		if _, err := k.UpdateTentative(book("b1"), "p", "k", 1); err != nil {
			t.Fatalf("promise %d refused without a limit: %v", i, err)
		}
	}
}

func TestPromiseLimitConcurrentMakersNeverOvershoot(t *testing.T) {
	const limit = 5
	k := newKernel(t, core.Options{Node: "n", PromiseLimit: limit})
	var wg sync.WaitGroup
	var refused sync.Map
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := k.UpdateTentative(book("b1"), "p", "k", 1); err != nil {
				refused.Store(i, err)
			}
		}(i)
	}
	wg.Wait()
	if pending, _, _ := counts(k); pending != limit {
		t.Fatalf("pending = %d, want exactly the limit %d", pending, limit)
	}
	refusals := 0
	refused.Range(func(_, v interface{}) bool {
		if !errors.Is(v.(error), apology.ErrPromiseLimit) {
			t.Fatalf("unexpected refusal error: %v", v)
		}
		refusals++
		return true
	})
	if refusals != 20-limit {
		t.Fatalf("refusals = %d, want %d", refusals, 20-limit)
	}
}
