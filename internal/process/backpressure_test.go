package process

// Deadline propagation and deep backlogs: work that nobody is waiting for
// anymore is dropped instead of executed, and a worker that owns an entity
// with a deep backlog keeps it for as long as the backlog takes — ownership
// is not a visibility lease, so nothing is redelivered out from under it.

import (
	"sync"
	"testing"
	"time"

	"repro/internal/entity"
	"repro/internal/lsdb"
	"repro/internal/queue"
	"repro/internal/txn"
)

// newEngineWithQueue is newEngine with the queue under the test's control.
func newEngineWithQueue(t *testing.T, qopts queue.Options, opts Options) (*Engine, *txn.Manager, *queue.Queue) {
	t.Helper()
	db := lsdb.Open(lsdb.Options{Node: "u1", SnapshotEvery: 16, Validation: entity.Managed})
	for _, typ := range orderTypes() {
		if err := db.RegisterType(typ); err != nil {
			t.Fatal(err)
		}
	}
	mgr := txn.NewManager(db, nil, txn.Options{Node: "u1", EnforceSingleEntity: true})
	qopts.Entities = db.Entity
	q := queue.New("u1", qopts)
	e := NewEngine(mgr, q, opts)
	return e, mgr, q
}

// A deep backlog on one entity (~150ms to drain) runs each event exactly once
// and dead-letters nothing: the events wait in their entity's mailbox, owned
// without a timeout, until the owner reaches them.
func TestDeepBacklogOutlivesVisibilityTimeout(t *testing.T) {
	const n = 30
	e, _, q := newEngineWithQueue(t, queue.Options{}, Options{Workers: 1})
	var mu sync.Mutex
	runs := map[string]int{}
	def := NewDefinition("slow-drain")
	def.Step("slow.step", func(ctx *StepContext) error {
		mu.Lock()
		runs[ctx.Event.TxnID]++
		mu.Unlock()
		time.Sleep(5 * time.Millisecond)
		return ctx.Txn.Update(ctx.Event.Entity, entity.Delta("total", 1))
	})
	if err := e.Register(def); err != nil {
		t.Fatal(err)
	}
	e.Start()
	for i := 0; i < n; i++ {
		if err := e.Submit(&queue.Event{Name: "slow.step", Entity: orderKey("O1"), TxnID: "lease-" + string(rune('a'+i))}, nil); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && e.Stats().StepsExecuted < n {
		time.Sleep(5 * time.Millisecond)
	}
	e.Stop()

	mu.Lock()
	defer mu.Unlock()
	if len(runs) != n {
		t.Fatalf("executed %d distinct events, want %d", len(runs), n)
	}
	for txnID, c := range runs {
		if c != 1 {
			t.Fatalf("event %s ran %d times, want exactly once", txnID, c)
		}
	}
	if dead := q.DeadLetters(); len(dead) != 0 {
		t.Fatalf("%d messages dead-lettered during the backlog: %v", len(dead), dead)
	}
	if got := e.Stats().KeyedDequeues; got < n-1-n/laneBudget {
		t.Fatalf("owner popped only %d of the entity's %d follow-on events in place", got, n-1)
	}
}

// An event whose deadline passed is dropped by the engine just before
// execution (the queue-side drop uses the queue's clock; here the queue's
// clock is frozen so only the engine check can fire).
func TestEngineDropsExpiredDeadlineBeforeExecution(t *testing.T) {
	frozen := time.Unix(0, 0)
	e, _, _ := newEngineWithQueue(t, queue.Options{Clock: func() time.Time { return frozen }}, Options{})
	ran := false
	def := NewDefinition("stale")
	def.Step("stale.step", func(ctx *StepContext) error {
		ran = true
		return nil
	})
	if err := e.Register(def); err != nil {
		t.Fatal(err)
	}
	ev := queue.Event{Name: "stale.step", Entity: orderKey("O1"), TxnID: "stale-1"}
	ev.Deadline = time.Now().Add(-time.Second)
	if err := e.Submit(&ev, nil); err != nil {
		t.Fatal(err)
	}
	e.Drain()
	if ran {
		t.Fatal("expired event was executed")
	}
	if got := e.Stats().DeadlineDropped; got != 1 {
		t.Fatalf("DeadlineDropped = %d, want 1", got)
	}
}

// Events emitted by a step inherit the parent's deadline unless they carry
// their own: the whole chain a request started shares the request's patience.
func TestEmitInheritsParentDeadline(t *testing.T) {
	e, _, _ := newEngineWithQueue(t, queue.Options{}, Options{})
	parentDeadline := time.Now().Add(time.Hour)
	ownDeadline := time.Now().Add(30 * time.Minute)
	var gotInherited, gotOwn time.Time
	def := NewDefinition("chain")
	def.Step("parent", func(ctx *StepContext) error {
		ctx.Emit(queue.Event{Name: "child.inherits", Entity: ctx.Event.Entity})
		own := queue.Event{Name: "child.own", Entity: ctx.Event.Entity}
		own.Deadline = ownDeadline
		ctx.Emit(own)
		return nil
	})
	def.Step("child.inherits", func(ctx *StepContext) error {
		gotInherited = ctx.Event.Deadline
		return nil
	})
	def.Step("child.own", func(ctx *StepContext) error {
		gotOwn = ctx.Event.Deadline
		return nil
	})
	if err := e.Register(def); err != nil {
		t.Fatal(err)
	}
	parent := queue.Event{Name: "parent", Entity: orderKey("O1"), TxnID: "p1"}
	parent.Deadline = parentDeadline
	if err := e.Submit(&parent, nil); err != nil {
		t.Fatal(err)
	}
	e.Drain()
	if !gotInherited.Equal(parentDeadline) {
		t.Fatalf("child deadline = %v, want inherited %v", gotInherited, parentDeadline)
	}
	if !gotOwn.Equal(ownDeadline) {
		t.Fatalf("child with own deadline = %v, want %v", gotOwn, ownDeadline)
	}
}
