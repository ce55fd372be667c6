package process

import (
	"errors"
	"testing"
	"time"

	"repro/internal/entity"
	"repro/internal/queue"
)

// Step idempotence is checked where a duplicate can enter: a submitted or
// enqueued event, and an emitted one whose handler chose its TxnID. Its step
// runs under an id the log remembers; an event whose id Emit minted is not
// checked (executeStep).

// drainAll drains e until its queue is empty, backoffs included.
func drainAll(t *testing.T, e *Engine) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; {
		e.Drain()
		if e.QueueDepth() == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue still holds %d events: %+v", e.QueueDepth(), e.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// A follow-up step whose handler fails once runs again, and only once more:
// its failed attempt committed nothing, and its retry is the same delivery.
func TestEmittedStepFailingOnceRunsOnce(t *testing.T) {
	for _, collapse := range []bool{false, true} {
		e, mgr, _ := newEngine(t, Options{CollapseVertical: collapse, RetryBackoff: time.Millisecond})
		attempts := 0
		def := NewDefinition("flaky").
			Step("order.created", func(ctx *StepContext) error {
				ctx.Emit(queue.Event{Name: "inventory.reserve", Entity: inventoryKey("widget")})
				return ctx.Txn.Update(ctx.Event.Entity, entity.Set("status", "OPEN"))
			}).
			Step("inventory.reserve", func(ctx *StepContext) error {
				if attempts++; attempts == 1 {
					return errors.New("transient")
				}
				return ctx.Txn.Update(ctx.Event.Entity, entity.Delta("onhand", -1))
			})
		if err := e.Register(def); err != nil {
			t.Fatal(err)
		}
		if err := e.Submit(&queue.Event{Name: "order.created", Entity: orderKey("O1"), TxnID: "entry-1"}, nil); err != nil {
			t.Fatal(err)
		}
		drainAll(t, e)
		st, _, err := mgr.DB().Current(inventoryKey("widget"))
		if err != nil || st.Int("onhand") != -1 || attempts != 2 {
			t.Fatalf("collapse=%v: onhand = %v after %d attempts (%v), want -1 after 2", collapse, st.Int("onhand"), attempts, err)
		}
	}
}

// An emitted event that carries a TxnID its handler chose is checked like a
// submitted one: emitted twice, it runs once.
func TestHandlerChosenTxnIDEmittedTwiceRunsOnce(t *testing.T) {
	e, mgr, _ := newEngine(t, Options{})
	def := NewDefinition("chosen").
		Step("order.created", func(ctx *StepContext) error {
			next := queue.Event{Name: "inventory.reserve", Entity: inventoryKey("widget"), TxnID: "reserve-O1"}
			ctx.Emit(next)
			ctx.Emit(next)
			return ctx.Txn.Update(ctx.Event.Entity, entity.Set("status", "OPEN"))
		}).
		Step("inventory.reserve", func(ctx *StepContext) error {
			return ctx.Txn.Update(ctx.Event.Entity, entity.Delta("onhand", -1))
		})
	if err := e.Register(def); err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(&queue.Event{Name: "order.created", Entity: orderKey("O1"), TxnID: "entry-1"}, nil); err != nil {
		t.Fatal(err)
	}
	drainAll(t, e)
	if st, _, err := mgr.DB().Current(inventoryKey("widget")); err != nil || st.Int("onhand") != -1 {
		t.Fatalf("onhand = %v (%v), want -1: a handler-chosen id emitted twice ran twice", st.Int("onhand"), err)
	}
}

// Behaviour removed with the boundary rule: a step that re-emits its own
// minted event unchanged, TxnID and all, runs once more, because the minted
// execution was never recorded. That copy enters with a TxnID Emit did not
// mint, so it is recorded, and the copy it emits in turn is skipped.
func TestReemittedMintedEventRunsOnceMore(t *testing.T) {
	e, mgr, _ := newEngine(t, Options{})
	def := NewDefinition("echo").
		Step("order.created", func(ctx *StepContext) error {
			ctx.Emit(queue.Event{Name: "inventory.reserve", Entity: inventoryKey("widget")})
			return ctx.Txn.Update(ctx.Event.Entity, entity.Set("status", "OPEN"))
		}).
		Step("inventory.reserve", func(ctx *StepContext) error {
			ctx.Emit(ctx.Event)
			return ctx.Txn.Update(ctx.Event.Entity, entity.Delta("onhand", -1))
		})
	if err := e.Register(def); err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(&queue.Event{Name: "order.created", Entity: orderKey("O1"), TxnID: "entry-1"}, nil); err != nil {
		t.Fatal(err)
	}
	drainAll(t, e)
	if st, _, err := mgr.DB().Current(inventoryKey("widget")); err != nil || st.Int("onhand") != -2 {
		t.Fatalf("onhand = %v (%v), want -2: the minted run and one recorded copy", st.Int("onhand"), err)
	}
}

// A step emitting more events than StepContext.minted has bits: the ones
// past the 64th are checked and recorded like boundary events, and every
// one still runs once.
func TestManyEmittedEventsRunOnce(t *testing.T) {
	const n = 70
	e, mgr, _ := newEngine(t, Options{})
	def := NewDefinition("fan-out").
		Step("order.created", func(ctx *StepContext) error {
			for i := 0; i < n; i++ {
				ctx.Emit(queue.Event{Name: "inventory.reserve", Entity: inventoryKey("widget")})
			}
			return ctx.Txn.Update(ctx.Event.Entity, entity.Set("status", "OPEN"))
		}).
		Step("inventory.reserve", func(ctx *StepContext) error {
			return ctx.Txn.Update(ctx.Event.Entity, entity.Delta("onhand", -1))
		})
	if err := e.Register(def); err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(&queue.Event{Name: "order.created", Entity: orderKey("O1"), TxnID: "entry-1"}, nil); err != nil {
		t.Fatal(err)
	}
	drainAll(t, e)
	if st, _, err := mgr.DB().Current(inventoryKey("widget")); err != nil || st.Int("onhand") != -n {
		t.Fatalf("onhand = %v (%v), want %d", st.Int("onhand"), err, -n)
	}
}

// A boundary step that writes nothing leaves no record to refuse its
// duplicate with: submitted twice, it runs twice and emits its child twice,
// under the same id. The child goes out unmarked, so it is checked where it
// writes, and applies once.
func TestStepWritingNothingAppliesChildOnce(t *testing.T) {
	for _, collapse := range []bool{false, true} {
		e, mgr, _ := newEngine(t, Options{CollapseVertical: collapse})
		def := NewDefinition("router").
			Step("order.routed", func(ctx *StepContext) error {
				ctx.Emit(queue.Event{Name: "inventory.reserve", Entity: inventoryKey("widget")})
				return nil
			}).
			Step("inventory.reserve", func(ctx *StepContext) error {
				return ctx.Txn.Update(ctx.Event.Entity, entity.Delta("onhand", 1))
			})
		if err := e.Register(def); err != nil {
			t.Fatal(err)
		}
		for range 2 {
			if err := e.Submit(&queue.Event{Name: "order.routed", Entity: orderKey("O1"), TxnID: "route-1"}, nil); err != nil {
				t.Fatal(err)
			}
			drainAll(t, e)
		}
		if st, _, err := mgr.DB().Current(inventoryKey("widget")); err != nil || st.Int("onhand") != 1 {
			t.Fatalf("collapse=%v: onhand = %v (%v), want 1: the resubmitted router's child applied again", collapse, st.Int("onhand"), err)
		}
	}
}
