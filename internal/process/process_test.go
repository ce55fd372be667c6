package process

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/entity"
	"repro/internal/lsdb"
	"repro/internal/queue"
	"repro/internal/txn"
)

func orderTypes() []*entity.Type {
	return []*entity.Type{
		{Name: "Order", Fields: []entity.Field{
			{Name: "status", Type: entity.String},
			{Name: "total", Type: entity.Float},
		}},
		{Name: "Inventory", Fields: []entity.Field{
			{Name: "onhand", Type: entity.Int},
		}},
		{Name: "Shipment", Fields: []entity.Field{
			{Name: "state", Type: entity.String},
		}},
	}
}

func newEngine(t testing.TB, opts Options) (*Engine, *txn.Manager, *queue.Queue) {
	t.Helper()
	db := lsdb.Open(lsdb.Options{Node: "u1", SnapshotEvery: 16, Validation: entity.Managed})
	for _, typ := range orderTypes() {
		if err := db.RegisterType(typ); err != nil {
			t.Fatal(err)
		}
	}
	mgr := txn.NewManager(db, nil, txn.Options{Node: "u1", EnforceSingleEntity: true})
	q := queue.New("u1", queue.Options{})
	e := NewEngine(mgr, q, opts)
	return e, mgr, q
}

func orderKey(id string) entity.Key     { return entity.Key{Type: "Order", ID: id} }
func inventoryKey(id string) entity.Key { return entity.Key{Type: "Inventory", ID: id} }
func shipmentKey(id string) entity.Key  { return entity.Key{Type: "Shipment", ID: id} }

// orderPipeline wires a three-step order-to-cash pipeline:
// order.created -> inventory.reserve -> shipment.create.
func orderPipeline() *Definition {
	def := NewDefinition("order-to-cash")
	def.Step("order.created", func(ctx *StepContext) error {
		if err := ctx.Txn.Update(ctx.Event.Entity, entity.Set("status", "OPEN")); err != nil {
			return err
		}
		ctx.Emit(queue.Event{
			Name:   "inventory.reserve",
			Entity: inventoryKey("widget"),
			Data:   map[string]interface{}{"order": ctx.Event.Entity.ID, "qty": int64(1)},
		})
		ctx.Audit("order %s entered", ctx.Event.Entity.ID)
		return nil
	})
	def.Step("inventory.reserve", func(ctx *StepContext) error {
		if err := ctx.Txn.Update(ctx.Event.Entity, entity.Delta("onhand", -1).Described("reserve for "+fmt.Sprint(ctx.Event.Data["order"]))); err != nil {
			return err
		}
		ctx.Emit(queue.Event{
			Name:   "shipment.create",
			Entity: shipmentKey(fmt.Sprint(ctx.Event.Data["order"])),
		})
		return nil
	})
	def.Step("shipment.create", func(ctx *StepContext) error {
		return ctx.Txn.Update(ctx.Event.Entity, entity.Set("state", "PLANNED"))
	})
	return def
}

func TestPipelineDrainsEndToEnd(t *testing.T) {
	e, mgr, _ := newEngine(t, Options{})
	if err := e.Register(orderPipeline()); err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(queue.Event{Name: "order.created", Entity: orderKey("O1"), TxnID: "ext-1"}); err != nil {
		t.Fatal(err)
	}
	steps := e.Drain()
	if steps != 3 {
		t.Fatalf("drained %d steps, want 3", steps)
	}
	// Every entity was updated by exactly one single-entity transaction.
	order, _, err := mgr.DB().Current(orderKey("O1"))
	if err != nil || order.StringField("status") != "OPEN" {
		t.Fatalf("order state: %v %v", order, err)
	}
	inv, _, _ := mgr.DB().Current(inventoryKey("widget"))
	if inv.Int("onhand") != -1 {
		t.Fatalf("inventory = %d (negative inventory is allowed, principle 2.1)", inv.Int("onhand"))
	}
	ship, _, _ := mgr.DB().Current(shipmentKey("O1"))
	if ship.StringField("state") != "PLANNED" {
		t.Fatalf("shipment = %v", ship)
	}
	stats := e.Stats()
	if stats.StepsExecuted != 3 || stats.EventsEmitted != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	if len(e.AuditLog()) != 1 || !strings.Contains(e.AuditLog()[0], "O1") {
		t.Fatalf("audit log = %v", e.AuditLog())
	}
}

func TestWorkersProcessConcurrently(t *testing.T) {
	e, mgr, _ := newEngine(t, Options{Workers: 4})
	def := NewDefinition("deposits")
	def.Step("deposit", func(ctx *StepContext) error {
		return ctx.Txn.Update(ctx.Event.Entity, entity.Delta("total", 1))
	})
	if err := e.Register(def); err != nil {
		t.Fatal(err)
	}
	e.Start()
	const n = 100
	for i := 0; i < n; i++ {
		e.Submit(queue.Event{Name: "deposit", Entity: orderKey("O1"), TxnID: fmt.Sprintf("d%d", i)})
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if e.Stats().StepsExecuted >= n {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	e.Stop()
	st, _, err := mgr.DB().Current(orderKey("O1"))
	if err != nil || st.Float("total") != n {
		t.Fatalf("total = %v, want %d", st.Float("total"), n)
	}
}

func TestStopIsIdempotentAndSubmitAfterStopFails(t *testing.T) {
	e, _, _ := newEngine(t, Options{})
	e.Start()
	e.Stop()
	e.Stop()
	if err := e.Submit(queue.Event{Name: "x"}); !errors.Is(err, ErrStopped) {
		t.Fatalf("want ErrStopped, got %v", err)
	}
}

func TestRetryThenSuccess(t *testing.T) {
	e, mgr, _ := newEngine(t, Options{MaxAttempts: 5})
	var failures atomic.Int32
	def := NewDefinition("flaky")
	def.Step("flaky.step", func(ctx *StepContext) error {
		if failures.Add(1) <= 2 {
			return errors.New("transient")
		}
		return ctx.Txn.Update(ctx.Event.Entity, entity.Set("status", "DONE"))
	})
	e.Register(def)
	e.Submit(queue.Event{Name: "flaky.step", Entity: orderKey("O1"), TxnID: "f1"})
	// Drain repeatedly: failed deliveries go back with a short backoff.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		e.Drain()
		st, _, err := mgr.DB().Current(orderKey("O1"))
		if err == nil && st.StringField("status") == "DONE" {
			if e.Stats().Retries < 2 {
				t.Fatalf("retries = %d, want >= 2", e.Stats().Retries)
			}
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("step never succeeded after retries")
}

func TestCompensationAfterMaxAttempts(t *testing.T) {
	e, mgr, _ := newEngine(t, Options{MaxAttempts: 2})
	var compensated atomic.Int32
	def := NewDefinition("doomed")
	def.Step("doomed.step", func(ctx *StepContext) error {
		ctx.Audit("attempt %d on %s", ctx.Attempt, ctx.Event.Entity.ID)
		return errors.New("permanent failure")
	})
	def.OnFailure("doomed.step", func(ev queue.Event, attempts int, lastErr error) {
		compensated.Add(1)
		if attempts < 2 || lastErr == nil {
			t.Errorf("compensation called with attempts=%d err=%v", attempts, lastErr)
		}
	})
	e.Register(def)
	e.Submit(queue.Event{Name: "doomed.step", Entity: orderKey("O1"), TxnID: "d1"})
	deadline := time.Now().Add(5 * time.Second)
	for compensated.Load() == 0 && time.Now().Before(deadline) {
		e.Drain()
		time.Sleep(2 * time.Millisecond)
	}
	if compensated.Load() != 1 {
		t.Fatal("compensation handler never ran")
	}
	// The transaction never committed.
	if _, _, err := mgr.DB().Current(orderKey("O1")); !errors.Is(err, lsdb.ErrNotFound) {
		t.Fatal("failed step leaked a write")
	}
	// Audit lines from failed attempts are retained (non-transactional).
	if len(e.AuditLog()) < 2 {
		t.Fatalf("audit log = %v", e.AuditLog())
	}
	if e.Stats().Compensations != 1 {
		t.Fatalf("stats = %+v", e.Stats())
	}
}

func TestUnknownEventIsDeadLettered(t *testing.T) {
	e, _, _ := newEngine(t, Options{})
	def := NewDefinition("known")
	def.Step("known.step", func(ctx *StepContext) error { return nil })
	e.Register(def)
	e.Submit(queue.Event{Name: "unknown.step", TxnID: "u1"})
	e.Drain()
	if e.Stats().UnknownEvents != 1 {
		t.Fatalf("stats = %+v", e.Stats())
	}
	if e.QueueDepth() != 0 {
		t.Fatal("unknown event left in the queue")
	}
}

func TestDuplicateDeliveryIsIdempotent(t *testing.T) {
	e, mgr, q := newEngine(t, Options{})
	def := NewDefinition("deposits")
	def.Step("deposit", func(ctx *StepContext) error {
		return ctx.Txn.Update(ctx.Event.Entity, entity.Delta("total", 10))
	})
	e.Register(def)
	// The same logical event delivered twice (at-least-once).
	ev := queue.Event{Name: "deposit", Entity: orderKey("O1"), TxnID: "dup-1"}
	q.Enqueue("steps", ev)
	q.Enqueue("steps", ev)
	e.Drain()
	st, _, err := mgr.DB().Current(orderKey("O1"))
	if err != nil || st.Float("total") != 10 {
		t.Fatalf("duplicate delivery applied twice: %v", st.Float("total"))
	}
}

// The idempotence set must not grow with the life of the engine (it used to
// gain one entry per executed step, forever): ten windows' worth of steps go
// through one engine, the set — kept per step, bounded over all of them —
// stays within its bound throughout, and a duplicate delivery that arrives
// inside the window is still skipped. An identity is (step, id): the same id
// on another step is not a duplicate.
func TestIdempotenceSetIsBoundedAndStillDedups(t *testing.T) {
	const window = 256
	e, mgr, q := newEngine(t, Options{})
	e.done = newDoneSet(window)
	def := NewDefinition("deposits")
	plusOne := func(ctx *StepContext) error {
		return ctx.Txn.Update(ctx.Event.Entity, entity.Delta("total", 1))
	}
	def.Step("deposit", plusOne).Step("bonus", plusOne)
	e.Register(def)
	names := []string{"deposit", "bonus"}
	var last queue.Event
	for i := 0; i < 10*window; i++ {
		last = queue.Event{Name: names[i%2], Entity: orderKey("O1"), TxnID: fmt.Sprintf("w%d", i)}
		if err := e.Submit(last); err != nil {
			t.Fatal(err)
		}
		if i%50 == 49 {
			e.Drain()
			if got := e.done.size(); got > window {
				t.Fatalf("idempotence set holds %d identities after %d steps, bound %d", got, i+1, window)
			}
		}
	}
	e.Drain()
	// At-least-once redelivery of a recent step, and of one half a window old.
	q.Enqueue("steps", last)
	old := 10*window - window/2
	q.Enqueue("steps", queue.Event{Name: names[old%2], Entity: orderKey("O1"), TxnID: fmt.Sprintf("w%d", old)})
	e.Drain()
	st, _, err := mgr.DB().Current(orderKey("O1"))
	if err != nil || st.Float("total") != 10*window {
		t.Fatalf("total = %v, want %d: a duplicate inside the window was applied again", st.Float("total"), 10*window)
	}
	// The last id again, on the other step: a first execution.
	other := last
	other.Name = names[0]
	q.Enqueue("steps", other)
	e.Drain()
	if st, _, _ := mgr.DB().Current(orderKey("O1")); st.Float("total") != 10*window+1 {
		t.Fatalf("total = %v, want %d: an id one step had seen was refused to another", st.Float("total"), 10*window+1)
	}
}

func TestRegisterDuplicateStepRejected(t *testing.T) {
	e, _, _ := newEngine(t, Options{})
	a := NewDefinition("a")
	a.Step("shared.event", func(*StepContext) error { return nil })
	b := NewDefinition("b")
	b.Step("shared.event", func(*StepContext) error { return nil })
	if err := e.Register(a); err != nil {
		t.Fatal(err)
	}
	if err := e.Register(b); !errors.Is(err, ErrDuplicateStep) {
		t.Fatalf("want ErrDuplicateStep, got %v", err)
	}
}

func TestDefinitionEventsSorted(t *testing.T) {
	def := NewDefinition("p")
	def.Step("zeta", func(*StepContext) error { return nil })
	def.Step("alpha", func(*StepContext) error { return nil })
	ev := def.Events()
	if len(ev) != 2 || ev[0] != "alpha" || ev[1] != "zeta" {
		t.Fatalf("Events = %v", ev)
	}
}

func TestVerticalCollapseExecutesPipelineInline(t *testing.T) {
	e, mgr, _ := newEngine(t, Options{CollapseVertical: true, CollapseDepth: 8})
	e.Register(orderPipeline())
	e.Submit(queue.Event{Name: "order.created", Entity: orderKey("O1"), TxnID: "ext-1"})
	// A single drained message executes the whole pipeline inline.
	drained := e.Drain()
	if drained != 1 {
		t.Fatalf("drained %d messages, want 1 (rest collapsed)", drained)
	}
	stats := e.Stats()
	if stats.StepsExecuted != 3 {
		t.Fatalf("steps executed = %d, want 3", stats.StepsExecuted)
	}
	if stats.Collapsed != 2 {
		t.Fatalf("collapsed = %d, want 2", stats.Collapsed)
	}
	ship, _, err := mgr.DB().Current(shipmentKey("O1"))
	if err != nil || ship.StringField("state") != "PLANNED" {
		t.Fatalf("pipeline result missing: %v %v", ship, err)
	}
	// Each collapsed step still ran its own transaction (SOUPS preserved).
	if mgr.Stats().Commits != 3 {
		t.Fatalf("commits = %d, want 3", mgr.Stats().Commits)
	}
}

func TestCollapseDepthLimit(t *testing.T) {
	e, _, _ := newEngine(t, Options{CollapseVertical: true, CollapseDepth: 1})
	e.Register(orderPipeline())
	e.Submit(queue.Event{Name: "order.created", Entity: orderKey("O1"), TxnID: "ext-1"})
	e.Drain()
	// Depth 1 collapses only the first follow-up; the third step goes through
	// the queue but Drain picks it up, so everything still completes.
	if e.Stats().StepsExecuted != 3 {
		t.Fatalf("steps executed = %d", e.Stats().StepsExecuted)
	}
	if e.Stats().Collapsed != 1 {
		t.Fatalf("collapsed = %d, want 1", e.Stats().Collapsed)
	}
}

// TestWorkerPoolRidesGroupCommit runs the engine's worker pool against a
// group-commit store: concurrent step transactions enqueue their appends on
// the shard commit queues, and every step's effect must still land exactly
// once (idempotence keys intact, no lost or doubled updates).
func TestWorkerPoolRidesGroupCommit(t *testing.T) {
	db := lsdb.Open(lsdb.Options{Node: "u1", SnapshotEvery: 16, Validation: entity.Managed, GroupCommit: true, MaxBatch: 8})
	for _, typ := range orderTypes() {
		if err := db.RegisterType(typ); err != nil {
			t.Fatal(err)
		}
	}
	mgr := txn.NewManager(db, nil, txn.Options{Node: "u1", EnforceSingleEntity: true})
	q := queue.New("u1", queue.Options{})
	e := NewEngine(mgr, q, Options{Workers: 4})
	def := NewDefinition("bump")
	def.Step("order.bump", func(ctx *StepContext) error {
		return ctx.Txn.Update(ctx.Event.Entity, entity.Delta("total", 1))
	})
	if err := e.Register(def); err != nil {
		t.Fatal(err)
	}
	const events, orders = 120, 6
	for i := 0; i < events; i++ {
		ev := queue.Event{
			Name:   "order.bump",
			Entity: orderKey(fmt.Sprintf("O%d", i%orders)),
			TxnID:  fmt.Sprintf("bump-%d", i),
		}
		if err := e.Submit(ev); err != nil {
			t.Fatal(err)
		}
	}
	e.Start()
	deadline := time.Now().Add(10 * time.Second)
	for e.Stats().StepsExecuted < events {
		if time.Now().After(deadline) {
			t.Fatalf("timed out: %d/%d steps executed", e.Stats().StepsExecuted, events)
		}
		time.Sleep(time.Millisecond)
	}
	e.Stop()
	if got := e.Stats().StepsExecuted; got != events {
		t.Fatalf("steps executed = %d, want %d", got, events)
	}
	for o := 0; o < orders; o++ {
		st, _, err := db.Current(orderKey(fmt.Sprintf("O%d", o)))
		if err != nil {
			t.Fatalf("Current(O%d): %v", o, err)
		}
		if got := st.Float("total"); got != float64(events/orders) {
			t.Fatalf("O%d total = %v, want %d", o, got, events/orders)
		}
	}
	records := db.RecordsAfter(0)
	if len(records) != events {
		t.Fatalf("log has %d records, want %d", len(records), events)
	}
	for i, rec := range records {
		if rec.LSN != uint64(i+1) {
			t.Fatalf("LSN %d at position %d: worker commits left a gap", rec.LSN, i)
		}
	}
}
