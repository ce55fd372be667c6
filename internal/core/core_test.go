package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/apology"
	"repro/internal/entity"
	"repro/internal/lsdb"
	"repro/internal/migrate"
	"repro/internal/process"
	"repro/internal/queue"
	"repro/internal/txn"
	"repro/internal/workload"
)

func newKernel(t *testing.T, opts Options) *Kernel {
	t.Helper()
	k, err := Bootstrap(opts, workload.Types()...)
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	t.Cleanup(k.Close)
	return k
}

func orderKey(id string) entity.Key   { return entity.Key{Type: "Order", ID: id} }
func accountKey(id string) entity.Key { return entity.Key{Type: "Account", ID: id} }
func invKey(id string) entity.Key     { return entity.Key{Type: "Inventory", ID: id} }

func TestBootstrapAndBasicReadWrite(t *testing.T) {
	k := newKernel(t, Options{Node: "n1", Units: 2})
	res, err := k.Update(orderKey("O1"), entity.Set("status", "OPEN"), entity.Set("customer", "Customer/C1"))
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	if res.TxnID == "" || len(res.Records) != 1 {
		t.Fatalf("result = %+v", res)
	}
	st, err := k.Read(orderKey("O1"))
	if err != nil || st.StringField("status") != "OPEN" {
		t.Fatalf("Read: %v %v", st, err)
	}
	if !k.Exists(orderKey("O1")) || k.Exists(orderKey("ghost")) {
		t.Fatal("Exists wrong")
	}
	if k.TxnStats().Commits != 1 {
		t.Fatalf("TxnStats = %+v", k.TxnStats())
	}
	if len(k.Units()) != 2 {
		t.Fatalf("Units = %v", k.Units())
	}
}

func TestReadAsOfAndHistory(t *testing.T) {
	k := newKernel(t, Options{Node: "n1"})
	k.Update(orderKey("O1"), entity.Set("status", "OPEN"))
	mid := k.Now()
	time.Sleep(time.Millisecond)
	k.Update(orderKey("O1"), entity.Set("status", "SHIPPED"))
	st, err := k.ReadAsOf(orderKey("O1"), mid)
	if err != nil || st.StringField("status") != "OPEN" {
		t.Fatalf("ReadAsOf: %v %v", st, err)
	}
	h, err := k.History(orderKey("O1"))
	if err != nil || h.Len() != 2 {
		t.Fatalf("History: %v %v", h, err)
	}
}

func TestSOUPSEnforcesSingleEntityTransactions(t *testing.T) {
	k := newKernel(t, Options{Node: "n1"})
	_, err := k.Transact(accountKey("A"), func(tx *txn.Txn) error {
		if err := tx.Update(accountKey("A"), entity.Delta("balance", 1)); err != nil {
			return err
		}
		return tx.Update(accountKey("B"), entity.Delta("balance", 1))
	})
	if !errors.Is(err, txn.ErrMultiEntity) {
		t.Fatalf("want ErrMultiEntity, got %v", err)
	}
}

func TestSOUPSTransactMultiPropagatesViaSteps(t *testing.T) {
	k := newKernel(t, Options{Node: "n1", Units: 4})
	err := k.TransactMulti([]MultiWrite{
		{Key: accountKey("A"), Ops: []entity.Op{entity.Delta("balance", -50).Described("transfer out")}},
		{Key: accountKey("B"), Ops: []entity.Op{entity.Delta("balance", 50).Described("transfer in")}},
	})
	if err != nil {
		t.Fatalf("TransactMulti: %v", err)
	}
	// The first write is immediately visible; the second becomes visible once
	// the propagation step runs (subjective consistency in between).
	a, _ := k.Read(accountKey("A"))
	if a.Float("balance") != -50 {
		t.Fatalf("first write missing: %v", a.Float("balance"))
	}
	k.Drain()
	b, err := k.Read(accountKey("B"))
	if err != nil || b.Float("balance") != 50 {
		t.Fatalf("propagated write missing after drain: %v %v", b, err)
	}
	if k.TransactMulti(nil) != nil {
		t.Fatal("empty TransactMulti should be a no-op")
	}
}

func TestProcessPipelineAcrossUnits(t *testing.T) {
	k := newKernel(t, Options{Node: "n1", Units: 3})
	def := process.NewDefinition("order-to-cash")
	def.Step("order.created", func(ctx *process.StepContext) error {
		if err := ctx.Txn.Update(ctx.Event.Entity, entity.Set("status", "OPEN")); err != nil {
			return err
		}
		ctx.Emit(queue.Event{Name: "inventory.reserve", Entity: invKey("widget"),
			Data: map[string]interface{}{"qty": int64(2)}})
		return nil
	})
	def.Step("inventory.reserve", func(ctx *process.StepContext) error {
		qty, _ := ctx.Event.Data["qty"].(int64)
		return ctx.Txn.Update(ctx.Event.Entity, entity.Delta("onhand", -float64(qty)).Described("reserved"))
	})
	if err := k.DefineProcess(def); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := k.Submit(queue.Event{Name: "order.created", Entity: orderKey(fmt.Sprintf("O%d", i)), TxnID: fmt.Sprintf("ext-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	steps := k.Drain()
	if steps != 20 {
		t.Fatalf("steps = %d, want 20", steps)
	}
	inv, err := k.Read(invKey("widget"))
	if err != nil || inv.Int("onhand") != -20 {
		t.Fatalf("inventory = %v %v (negative stock is allowed)", inv, err)
	}
	for i := 0; i < 10; i++ {
		st, err := k.Read(orderKey(fmt.Sprintf("O%d", i)))
		if err != nil || st.StringField("status") != "OPEN" {
			t.Fatalf("order %d: %v %v", i, st, err)
		}
	}
	ps := k.ProcessStats()
	if ps.StepsExecuted != 20 || ps.EventsEmitted != 10 {
		t.Fatalf("process stats = %+v", ps)
	}
	if k.QueueDepth() != 0 {
		t.Fatalf("queue depth = %d", k.QueueDepth())
	}
}

func TestBackgroundWorkers(t *testing.T) {
	k := newKernel(t, Options{Node: "n1", Units: 2, Workers: 2})
	def := process.NewDefinition("deposits")
	def.Step("deposit", func(ctx *process.StepContext) error {
		return ctx.Txn.Update(ctx.Event.Entity, entity.Delta("balance", 1))
	})
	k.DefineProcess(def)
	k.Start()
	defer k.Stop()
	const n = 50
	for i := 0; i < n; i++ {
		if err := k.Submit(queue.Event{Name: "deposit", Entity: accountKey("A"), TxnID: fmt.Sprintf("d%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, err := k.Read(accountKey("A"))
		if err == nil && st.Float("balance") == n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	st, _ := k.Read(accountKey("A"))
	t.Fatalf("workers never processed all deposits: %v", st.Float("balance"))
}

func TestManagedWarningsSurfaceOnKernel(t *testing.T) {
	k := newKernel(t, Options{Node: "n1"})
	// Out-of-order reference plus unknown field: accepted with warnings.
	_, err := k.Update(entity.Key{Type: "Opportunity", ID: "OP1"},
		entity.Set("customer", "Customer/missing"),
		entity.Set("forecast_category", "A"))
	if err != nil {
		t.Fatalf("managed-mode update rejected: %v", err)
	}
	if len(k.Warnings()) == 0 {
		t.Fatal("no managed warnings recorded")
	}
}

// TestWarningsKeepTheNewestAndCountAll: a node that accepts dangling
// references for ever must not grow with them. Warnings is a ring of the
// newest maxWarnings, oldest first; WarningCount is every one accepted.
func TestWarningsKeepTheNewestAndCountAll(t *testing.T) {
	k := newKernel(t, Options{Node: "n1"})
	const total = maxWarnings + 37
	for i := 0; i < total; i++ {
		ref := fmt.Sprintf("Customer/missing-%d", i)
		if _, err := k.Update(entity.Key{Type: "Opportunity", ID: "OP1"}, entity.Set("customer", ref)); err != nil {
			t.Fatalf("managed-mode update %d rejected: %v", i, err)
		}
	}
	if got := k.WarningCount(); got != total {
		t.Fatalf("WarningCount = %d, want %d", got, total)
	}
	ws := k.Warnings()
	if len(ws) != maxWarnings {
		t.Fatalf("Warnings retains %d, want the newest %d", len(ws), maxWarnings)
	}
	for i, w := range ws {
		if want := fmt.Sprintf("Customer/missing-%d", total-maxWarnings+i); w.Op.Value != want {
			t.Fatalf("Warnings[%d] is about %v, want %s (oldest retained first)", i, w.Op.Value, want)
		}
	}
}

func TestDeferredAggregates(t *testing.T) {
	k := newKernel(t, Options{Node: "n1", Units: 2})
	k.DefineSumAggregate("revenue", "Order", "total", "")
	k.DefineCountAggregate("orders", "Order", "status")
	k.DefineIndex("orders-by-status", "Order", "status")
	for i := 0; i < 10; i++ {
		k.Update(orderKey(fmt.Sprintf("O%d", i)), entity.Set("status", "OPEN"), entity.Set("total", 10.0))
	}
	// Deferred: stale until caught up.
	if v, _ := k.Sum("revenue", ""); v != 0 {
		t.Fatalf("deferred aggregate fresh too early: %v", v)
	}
	if k.AggregateStaleness() == 0 {
		t.Fatal("staleness should be non-zero before catch-up")
	}
	k.CatchUpAggregates()
	if v, _ := k.Sum("revenue", ""); v != 100 {
		t.Fatalf("revenue = %v, want 100", v)
	}
	if n, _ := k.Count("orders", "OPEN"); n != 10 {
		t.Fatalf("count = %d", n)
	}
	ids, err := k.Lookup("orders-by-status", "OPEN")
	if err != nil || len(ids) != 10 {
		t.Fatalf("lookup = %v %v", ids, err)
	}
	if k.AggregateStaleness() != 0 {
		t.Fatalf("staleness after catch-up = %d", k.AggregateStaleness())
	}
}

func TestQueryAcrossUnits(t *testing.T) {
	k := newKernel(t, Options{Node: "n1", Units: 4})
	for i := 0; i < 20; i++ {
		k.Update(orderKey(fmt.Sprintf("O%d", i)), entity.Set("status", "OPEN"))
	}
	count := 0
	if err := k.Query("Order", func(*entity.State) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 20 {
		t.Fatalf("Query visited %d entities, want 20", count)
	}
	// Early termination.
	count = 0
	k.Query("Order", func(*entity.State) bool { count++; return false })
	if count != 1 {
		t.Fatalf("early stop visited %d", count)
	}
	if err := k.Query("Ghost", func(*entity.State) bool { return true }); err == nil {
		t.Fatal("unknown type should fail")
	}
}

func TestTentativePromiseKeepAndBreak(t *testing.T) {
	k := newKernel(t, Options{Node: "n1"})
	// Seed the bestseller with 5 copies.
	k.Update(entity.Key{Type: "Book", ID: "bestseller"}, entity.Set("stock", 5), entity.Set("title", "Principles"))
	// Two tentative orders reserve a copy each.
	p1, err := k.UpdateTentative(entity.Key{Type: "Book", ID: "bestseller"}, "alice", "order-confirmation", 1,
		entity.Delta("stock", -1).Described("reserved for alice"))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := k.UpdateTentative(entity.Key{Type: "Book", ID: "bestseller"}, "bob", "order-confirmation", 1,
		entity.Delta("stock", -1).Described("reserved for bob"))
	if err != nil {
		t.Fatal(err)
	}
	st, _ := k.Read(entity.Key{Type: "Book", ID: "bestseller"})
	if st.Int("stock") != 3 || !st.Tentative {
		t.Fatalf("state after tentative reservations = %+v", st)
	}
	// Keep one promise, break the other: the broken reservation is withdrawn.
	if err := k.KeepPromise(p1.ID); err != nil {
		t.Fatal(err)
	}
	a, err := k.BreakPromise(p2.ID, "warehouse fire", "full refund")
	if err != nil || a.Partner != "bob" {
		t.Fatalf("BreakPromise: %+v %v", a, err)
	}
	st, _ = k.Read(entity.Key{Type: "Book", ID: "bestseller"})
	if st.Int("stock") != 4 {
		t.Fatalf("stock after withdrawal = %d, want 4", st.Int("stock"))
	}
	if st.Tentative {
		t.Fatal("state should no longer be tentative after confirm")
	}
	if rate := k.Ledger().ApologyRate(); rate != 0.5 {
		t.Fatalf("apology rate = %v", rate)
	}
}

func TestResolveOverbookingThroughKernel(t *testing.T) {
	k := newKernel(t, Options{Node: "n1"})
	key := entity.Key{Type: "Book", ID: "bestseller"}
	k.Update(key, entity.Set("stock", 5))
	for i := 0; i < 8; i++ {
		if _, err := k.UpdateTentative(key, fmt.Sprintf("customer-%d", i), "order-confirmation", 1,
			entity.Delta("stock", -1).Described("tentative sale")); err != nil {
			t.Fatal(err)
		}
	}
	kept, apologies, err := k.ResolveOverbooking(key, 5, "only 5 copies", "refund")
	if err != nil {
		t.Fatal(err)
	}
	if kept != 5 || len(apologies) != 3 {
		t.Fatalf("kept=%d apologies=%d", kept, len(apologies))
	}
	// The three withdrawn reservations leave stock at 0, not -3.
	st, _ := k.Read(key)
	if st.Int("stock") != 0 {
		t.Fatalf("stock = %d, want 0", st.Int("stock"))
	}
}

func TestKernelMigration(t *testing.T) {
	k := newKernel(t, Options{Node: "n1", Units: 3})
	for i := 0; i < 30; i++ {
		k.Update(orderKey(fmt.Sprintf("O%d", i)), entity.Set("status", "OPEN"), entity.Set("total", 10.0))
	}
	progress, err := k.Migrate(migrate.Migration{
		Type:      "Order",
		AddFields: []entity.Field{{Name: "channel", Type: entity.String}},
		Backfill: func(st *entity.State) []entity.Op {
			return []entity.Op{entity.Set("channel", "direct")}
		},
	}, 8)
	if err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	if progress.Backfills != 30 {
		t.Fatalf("progress = %+v", progress)
	}
	st, _ := k.Read(orderKey("O7"))
	if st.StringField("channel") != "direct" {
		t.Fatalf("backfill missing: %+v", st.Fields)
	}
	// The new schema version is active.
	active, err := k.SchemaRegistry().Active("Order")
	if err != nil || active.Version != 2 {
		t.Fatalf("active = %+v %v", active, err)
	}
	// Writes using the new field succeed on every unit.
	for i := 0; i < 6; i++ {
		if _, err := k.Update(orderKey(fmt.Sprintf("N%d", i)), entity.Set("channel", "web")); err != nil {
			t.Fatalf("post-migration write: %v", err)
		}
	}
}

// An online migration yields after every batch on every unit, not only on
// the first: with a batch of one, each of the 40 backfilled entities costs
// the backfill a pause, whichever unit holds it.
func TestMigrateOnlineYieldsOnEveryUnit(t *testing.T) {
	k := newKernel(t, Options{Node: "n1", Units: 4})
	const n = 40
	for i := 0; i < n; i++ {
		if _, err := k.Update(orderKey(fmt.Sprintf("O%d", i)), entity.Set("status", "OPEN")); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	progress, err := k.Migrate(migrate.Migration{
		Type:      "Order",
		AddFields: []entity.Field{{Name: "channel", Type: entity.String}},
		Backfill: func(st *entity.State) []entity.Op {
			return []entity.Op{entity.Set("channel", "direct")}
		},
	}, 1)
	wall := time.Since(start)
	if err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	if progress.Backfills != n {
		t.Fatalf("progress = %+v, want %d backfills", progress, n)
	}
	if wall < n*time.Millisecond {
		t.Fatalf("backfill of %d entities in batches of 1 took %v, want >= %v: some unit did not yield", n, wall, n*time.Millisecond)
	}
}

// BreakPromise counts the broken promise, as ResolveOverbooking does for the
// promises it breaks: both go through the ledger's break hook.
func TestBreakPromiseCountsBroken(t *testing.T) {
	k := newKernel(t, Options{Node: "n1"})
	key := entity.Key{Type: "Book", ID: "bestseller"}
	k.Update(key, entity.Set("stock", 5))
	p, err := k.UpdateTentative(key, "alice", "order-confirmation", 1, entity.Delta("stock", -1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.BreakPromise(p.ID, "warehouse fire", "refund"); err != nil {
		t.Fatal(err)
	}
	if got := k.Metrics().Counter("promise.broken").Value(); got != 1 {
		t.Fatalf("promise.broken = %d after one BreakPromise, want 1", got)
	}
	if got := k.Metrics().Counter("apology.issued").Value(); got != 1 {
		t.Fatalf("apology.issued = %d, want 1", got)
	}
	if st, _ := k.Read(key); st.Int("stock") != 5 {
		t.Fatalf("stock = %d, want 5: the broken promise's reservation is withdrawn", st.Int("stock"))
	}
}

func TestUpdateUnknownTypeFails(t *testing.T) {
	k := newKernel(t, Options{Node: "n1"})
	if _, err := k.Update(entity.Key{Type: "Ghost", ID: "1"}, entity.Set("x", 1)); !errors.Is(err, lsdb.ErrUnknownType) {
		t.Fatalf("want ErrUnknownType, got %v", err)
	}
	if _, err := k.Read(entity.Key{Type: "Ghost", ID: "1"}); err == nil {
		t.Fatal("read of unknown type should fail")
	}
}

// TestUpdateTentativeCountsAsACommit checks that a promise commits like any
// other write: a managed violation it carries reaches Warnings and
// constraint.managed, and the commit is counted in txn.committed and
// txn.latency.
func TestUpdateTentativeCountsAsACommit(t *testing.T) {
	k := newKernel(t, Options{Node: "n1"})
	key := orderKey("O1")
	if _, err := k.Update(key, entity.Set("unknown_field", "x")); err != nil {
		t.Fatal(err)
	}
	if _, err := k.UpdateTentative(key, "C1", "order-confirmation", 1, entity.Set("unknown_field", "y")); err != nil {
		t.Fatal(err)
	}
	if got, ws := k.WarningCount(), k.Warnings(); got != 2 || len(ws) != 2 || ws[1].Op.Value != "y" {
		t.Fatalf("WarningCount %d, Warnings %v: want both writes' violations", got, ws)
	}
	if got := k.Metrics().Counter("txn.committed").Value(); got != 2 {
		t.Fatalf("txn.committed = %d, want 2", got)
	}
	if got := k.Metrics().Histogram("txn.latency").Count(); got != 2 {
		t.Fatalf("txn.latency holds %d samples, want 2", got)
	}
}

func TestMetricsExposed(t *testing.T) {
	k := newKernel(t, Options{Node: "n1"})
	k.Update(orderKey("O1"), entity.Set("status", "OPEN"))
	if k.Metrics().Counter("txn.committed").Value() != 1 {
		t.Fatalf("metrics not recorded: %s", k.Metrics().Dump())
	}
	if k.Metrics().Histogram("txn.latency").Count() != 1 {
		t.Fatal("latency histogram empty")
	}
}

// The kernel resolves its instruments once, when it opens: each is in the
// registry at 0 before anything uses it, and the registry hands out the same
// handle the commit path writes.
func TestInstrumentsExistFromBootstrap(t *testing.T) {
	k := newKernel(t, Options{Node: "n1"})
	dump := k.Metrics().Dump()
	lines := strings.Split(dump, "\n")
	for _, name := range []string{"txn.committed", "txn.failed", "promise.made", "promise.refused",
		"promise.kept", "promise.broken", "constraint.managed", "apology.issued"} {
		if !slices.Contains(lines, "counter "+name+" = 0") {
			t.Errorf("fresh kernel's dump lacks %s at 0:\n%s", name, dump)
		}
	}
	if !strings.Contains(dump, "histogram txn.latency: n=0 ") {
		t.Errorf("fresh kernel's dump lacks an empty txn.latency:\n%s", dump)
	}
	if _, err := k.Update(orderKey("O1"), entity.Set("status", "OPEN")); err != nil {
		t.Fatal(err)
	}
	if c := k.Metrics().Counter("txn.committed"); c != k.inst.txnCommitted || c.Value() != 1 {
		t.Fatalf("txn.committed: registry handle %p (value %d), kernel handle %p", c, c.Value(), k.inst.txnCommitted)
	}
}

func TestCloseIsIdempotentAndStopsWorkers(t *testing.T) {
	k, err := Bootstrap(Options{Node: "n1"}, workload.Types()...)
	if err != nil {
		t.Fatal(err)
	}
	k.Start()
	k.Close()
	k.Close()
	if err := k.Submit(queue.Event{Name: "x", Entity: orderKey("O1")}); err == nil {
		t.Fatal("Submit after Close should fail")
	}
}

func TestOptionsAccessors(t *testing.T) {
	k := newKernel(t, Options{Node: "n1", Units: 2})
	if k.Options().Units != 2 {
		t.Fatalf("Options = %+v", k.Options())
	}
	if k.Ledger() == nil || k.SchemaRegistry() == nil {
		t.Fatal("accessors returned nil")
	}
}

// TestKernelReadsAreFrozenAndAliasFree checks the kernel-level half of the
// copy-on-write contract: Read and Query hand out frozen states zero-copy,
// and a caller that thaws and scribbles over its copy never corrupts what
// later readers and transactions see.
func TestKernelReadsAreFrozenAndAliasFree(t *testing.T) {
	k := newKernel(t, Options{Node: "cow"})
	key := orderKey("O1")
	if _, err := k.Update(key,
		entity.Set("status", "OPEN"),
		entity.InsertChild("lineitems", "L1", entity.Fields{"product": "widget", "qty": 2}),
	); err != nil {
		t.Fatal(err)
	}
	st, err := k.Read(key)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !st.Frozen() {
		t.Fatal("Read should return a frozen state")
	}
	mine := st.Thaw()
	mine.Fields["status"] = "SCRIBBLED"
	mine.Deleted = true
	if err := k.Query("Order", func(qs *entity.State) bool {
		if !qs.Frozen() {
			t.Error("Query should hand out frozen states")
		}
		m := qs.Thaw()
		m.Fields["status"] = "SCRIBBLED-TOO"
		return true
	}); err != nil {
		t.Fatal(err)
	}
	again, err := k.Read(key)
	if err != nil {
		t.Fatal(err)
	}
	if again.StringField("status") != "OPEN" || again.Deleted {
		t.Fatalf("caller scribbling leaked into the kernel: %q deleted=%v", again.StringField("status"), again.Deleted)
	}
	if c, ok := again.ChildByID("lineitems", "L1"); !ok || c.Fields["qty"].(int64) != 2 {
		t.Fatalf("child corrupted: ok=%v %+v", ok, c)
	}
	// A transaction reading the same entity sees the clean state too and can
	// keep writing through the normal path.
	if _, err := k.Transact(key, func(tx *txn.Txn) error {
		s, err := tx.Read(key)
		if err != nil {
			return err
		}
		if s.StringField("status") != "OPEN" {
			return fmt.Errorf("txn read saw corruption: %q", s.StringField("status"))
		}
		return tx.Update(key, entity.Set("status", "PAID"))
	}); err != nil {
		t.Fatal(err)
	}
	final, _ := k.Read(key)
	if final.StringField("status") != "PAID" {
		t.Fatalf("status = %q, want PAID", final.StringField("status"))
	}
}

// TestKernelGroupCommitEquivalence drives concurrent Update traffic through a
// group-commit kernel and a per-append kernel: every read-visible outcome —
// balances, transaction stats, aggregate sums after catch-up — must match.
func TestKernelGroupCommitEquivalence(t *testing.T) {
	const goroutines, perG, accounts = 8, 30, 5
	run := func(opts Options) *Kernel {
		k := newKernel(t, opts)
		k.DefineSumAggregate("deposits", "Account", "balance", "")
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					key := accountKey(fmt.Sprintf("A%d", (g*perG+i)%accounts))
					if _, err := k.Update(key, entity.Delta("balance", 1)); err != nil {
						t.Errorf("goroutine %d: %v", g, err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		k.CatchUpAggregates()
		return k
	}
	batched := run(Options{Node: "gc", Units: 2, GroupCommit: true, MaxAppendBatch: 8})
	serial := run(Options{Node: "pa", Units: 2})
	if t.Failed() {
		return
	}
	for a := 0; a < accounts; a++ {
		key := accountKey(fmt.Sprintf("A%d", a))
		stB, errB := batched.Read(key)
		stS, errS := serial.Read(key)
		if errB != nil || errS != nil {
			t.Fatalf("Read(%s): %v / %v", key, errB, errS)
		}
		if stB.Float("balance") != stS.Float("balance") {
			t.Fatalf("%s: batched balance %v, serial %v", key, stB.Float("balance"), stS.Float("balance"))
		}
	}
	if b, s := batched.TxnStats().Commits, serial.TxnStats().Commits; b != s || b != goroutines*perG {
		t.Fatalf("commits: batched %d, serial %d, want %d", b, s, goroutines*perG)
	}
	sumB, _ := batched.Sum("deposits", "")
	sumS, _ := serial.Sum("deposits", "")
	if sumB != sumS || sumB != float64(goroutines*perG) {
		t.Fatalf("aggregate: batched %v, serial %v, want %d", sumB, sumS, goroutines*perG)
	}
}

// TestKernelGroupCommitTentativePromises exercises the promise/apology path
// over batched appends: broken promises withdraw their tentative records even
// when those records were committed by a group-commit leader.
func TestKernelGroupCommitTentativePromises(t *testing.T) {
	k := newKernel(t, Options{Node: "gcp", GroupCommit: true})
	key := entity.Key{Type: "Book", ID: "bestseller"}
	if _, err := k.Update(key, entity.Set("stock", 3)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := k.UpdateTentative(key, fmt.Sprintf("cust-%d", i), "order", 1, entity.Delta("stock", -1)); err != nil {
			t.Fatal(err)
		}
	}
	kept, apologies, err := k.ResolveOverbooking(key, 3, "only 3 in stock", "refund")
	if err != nil {
		t.Fatal(err)
	}
	if kept != 3 || len(apologies) != 2 {
		t.Fatalf("kept=%d apologies=%d, want 3/2", kept, len(apologies))
	}
	st, err := k.Read(key)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Int("stock"); got != 0 {
		t.Fatalf("stock after reconciliation = %d, want 0 (3 kept promises applied, 2 withdrawn)", got)
	}
}

// TestKernelPoolStatsAggregateAcrossUnits drives the started kernel — the
// per-unit work-stealing pools — across several units and entities and
// checks that every step lands exactly once and the pool's scheduling
// counters surface through ProcessStats.
func TestKernelPoolStatsAggregateAcrossUnits(t *testing.T) {
	k := newKernel(t, Options{Node: "pool", Units: 2, Workers: 4})
	def := process.NewDefinition("bump")
	def.Step("acct.bump", func(ctx *process.StepContext) error {
		return ctx.Txn.Update(ctx.Event.Entity, entity.Delta("balance", 1))
	})
	if err := k.DefineProcess(def); err != nil {
		t.Fatal(err)
	}
	k.Start()
	const entities, perEntity = 8, 10
	for seq := 0; seq < perEntity; seq++ {
		for ent := 0; ent < entities; ent++ {
			ev := queue.Event{
				Name:   "acct.bump",
				Entity: accountKey(fmt.Sprintf("P%d", ent)),
				TxnID:  fmt.Sprintf("p%d-%d", ent, seq),
			}
			if err := k.Submit(ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	const want = entities * perEntity
	deadline := time.Now().Add(30 * time.Second)
	for k.ProcessStats().StepsExecuted < want {
		if time.Now().After(deadline) {
			t.Fatalf("timed out: %+v", k.ProcessStats())
		}
		time.Sleep(time.Millisecond)
	}
	k.Stop()
	for ent := 0; ent < entities; ent++ {
		st, err := k.Read(accountKey(fmt.Sprintf("P%d", ent)))
		if err != nil || st.Float("balance") != perEntity {
			t.Fatalf("P%d = %v, %v", ent, st, err)
		}
	}
	stats := k.ProcessStats()
	if stats.StepsExecuted != want {
		t.Fatalf("steps executed = %d, want %d", stats.StepsExecuted, want)
	}
	if stats.PeakLaneDepth == 0 {
		t.Fatalf("peak lane depth never recorded: %+v", stats)
	}
}

// A kernel-level promise limit: UpdateTentative refuses promises beyond
// Options.PromiseLimit per entity, and a refused promise leaves no trace in
// the entity's rollup (its tentative record is withdrawn).
func TestUpdateTentativePromiseLimit(t *testing.T) {
	k := newKernel(t, Options{Node: "n1", PromiseLimit: 2})
	key := invKey("I1")
	if _, err := k.Update(key, entity.Set("stock", int64(10))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := k.UpdateTentative(key, fmt.Sprintf("partner-%d", i), "reservation", 1,
			entity.Delta("stock", -1)); err != nil {
			t.Fatalf("promise %d: %v", i, err)
		}
	}
	_, err := k.UpdateTentative(key, "partner-2", "reservation", 1, entity.Delta("stock", -1))
	if !errors.Is(err, apology.ErrPromiseLimit) {
		t.Fatalf("third promise: want ErrPromiseLimit, got %v", err)
	}
	// The refused promise's tentative delta must not survive in the rollup.
	st, err := k.Read(key)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Float("stock"); got != 8 {
		t.Fatalf("stock = %v, want 8 (two promised, the refused third withdrawn)", got)
	}
	if pending := len(k.Ledger().PendingFor(key)); pending != 2 {
		t.Fatalf("pending promises = %d, want 2", pending)
	}
	// Settling frees capacity at the kernel level too.
	promises := k.Ledger().PendingFor(key)
	if err := k.KeepPromise(promises[0].ID); err != nil {
		t.Fatal(err)
	}
	if _, err := k.UpdateTentative(key, "partner-3", "reservation", 1, entity.Delta("stock", -1)); err != nil {
		t.Fatalf("promise after settling: %v", err)
	}
}

// Update's CommitResult is the caller's to keep: its records are copies, so
// process steps recycling their scaffolding on the same entity, further
// updates and a compaction leave a result already returned as it was.
func TestUpdateResultRecordsSurviveLaterWork(t *testing.T) {
	k := newKernel(t, Options{Node: "keep", Units: 2})
	key := accountKey("A")
	res, err := k.Update(key, entity.Delta("balance", 5))
	if err != nil || len(res.Records) != 1 {
		t.Fatalf("Update: %+v, %v", res, err)
	}
	want := res.Records[0]
	for i := 0; i < 50; i++ {
		if err := k.Submit(queue.Event{Name: ApplyEventName, Entity: key, TxnID: fmt.Sprintf("ev-%d", i),
			Data: map[string]interface{}{"ops": []entity.Op{entity.Delta("balance", 1)}}}); err != nil {
			t.Fatal(err)
		}
		if _, err := k.Update(key, entity.Delta("balance", 1)); err != nil {
			t.Fatal(err)
		}
	}
	k.Drain()
	if k.Compact() == 0 {
		t.Fatal("nothing compacted")
	}
	got := res.Records[0]
	if got.LSN != want.LSN || got.TxnID != res.TxnID || got.Key != key || len(got.Ops) != 1 || got.Ops[0].Delta != 5 || got.Obsolete {
		t.Fatalf("a returned record changed under its holder: %+v, was %+v", got, want)
	}
	if st, err := k.Read(key); err != nil || st.Float("balance") != 105 {
		t.Fatalf("balance %v (%v), want 105", st, err)
	}
}

// What Kernel.Read and Kernel.Query hand out is the store's cached state,
// lent: updates that follow — which write an unlent cached state in place —
// never show through it.
func TestReadAndQueryStatesNeverChangeUnderLaterUpdates(t *testing.T) {
	order := orderKey("O1")
	write := func(k *Kernel, i int) {
		t.Helper()
		if _, err := k.Update(order,
			entity.Set("status", fmt.Sprintf("S%d", i)),
			entity.Delta("total", 1),
			entity.InsertChild("lineitems", fmt.Sprintf("L%d", i), entity.Fields{"product": "widget", "qty": i}),
			entity.SetChildField("lineitems", "L1", "qty", i)); err != nil {
			t.Fatal(err)
		}
	}
	image := func(st *entity.State) string {
		return fmt.Sprint(st.Fields, st.Tentative, st.Deleted, st.Children("lineitems"))
	}
	paths := map[string]func(k *Kernel) *entity.State{
		"read": func(k *Kernel) *entity.State {
			st, err := k.Read(order)
			if err != nil {
				t.Fatal(err)
			}
			return st
		},
		"query": func(k *Kernel) *entity.State {
			var got *entity.State
			if err := k.Query("Order", func(st *entity.State) bool { got = st; return false }); err != nil || got == nil {
				t.Fatalf("Query: %v, %v", got, err)
			}
			return got
		},
	}
	for name, lend := range paths {
		t.Run(name, func(t *testing.T) {
			k := newKernel(t, Options{Node: "n1", Units: 2})
			for i := 1; i <= 70; i++ {
				write(k, i)
			}
			st := lend(k)
			want := image(st)
			for i := 71; i <= 134; i++ {
				write(k, i)
			}
			if got := image(st); got != want {
				t.Fatalf("a lent state changed under its holder:\nwas %s\nnow %s", want, got)
			}
			if cur, _ := k.Read(order); cur.Float("total") != 134 {
				t.Fatalf("store total %v, want 134", cur.Float("total"))
			}
		})
	}
}
