package process

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/entity"
	"repro/internal/queue"
)

// A worker runs every step in the same StepContext and Txn. These tests pin
// that a frame is handed to a handler with nothing of the previous step in
// it, and that recycling never writes into what a handler (wrongly) kept.

// kept is what a handler held on to from the step it ran in a frame.
type kept struct {
	txnID   string
	n       int
	data    map[string]interface{} // ctx.Event.Data
	emitted queue.Event            // the event it emitted, Data map included
}

// waitForSteps returns once the engine has counted n executed steps.
func waitForSteps(t *testing.T, e *Engine, n uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for e.Stats().StepsExecuted < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out: %+v", e.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRecycledStepFrameCarriesNothingOver(t *testing.T) {
	const chains = 400
	e, _, _ := newEngine(t, Options{Workers: 2})
	var mu sync.Mutex
	last := map[*StepContext]kept{} // by frame: what its previous step kept
	seenTxn := map[string]bool{}
	var held []kept
	var problems []string
	complain := func(format string, args ...interface{}) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	def := NewDefinition("recycle")
	step := func(ctx *StepContext) error {
		mu.Lock()
		defer mu.Unlock()
		n := ctx.Event.Data["n"].(int)
		// Nothing of the frame's previous step shows through it.
		if len(ctx.emitted) != 0 {
			complain("step %d entered with %d emitted events already staged", n, len(ctx.emitted))
		}
		if w := ctx.Txn.Entities(); len(w) != 0 {
			complain("step %d entered with writes to %v already buffered", n, w)
		}
		if seenTxn[ctx.Txn.ID()] {
			complain("step %d runs in transaction %s again", n, ctx.Txn.ID())
		}
		seenTxn[ctx.Txn.ID()] = true
		if ctx.Attempt != 1 || ctx.Event.TxnID == "" || len(ctx.Event.Data) != 2 || ctx.Event.Data["for"] != ctx.Event.Entity.ID {
			complain("step %d got attempt %d, event %+v", n, ctx.Attempt, ctx.Event)
		}
		if prev, ok := last[ctx]; ok {
			if prev.txnID == ctx.Txn.ID() || prev.n == n {
				complain("step %d sees step %d (%s) through its frame", n, prev.n, prev.txnID)
			}
		}
		if err := ctx.Txn.Update(ctx.Event.Entity, entity.Delta("total", 1)); err != nil {
			return err
		}
		k := kept{txnID: ctx.Txn.ID(), n: n, data: ctx.Event.Data}
		if ctx.Event.Name == "first" {
			next := queue.Event{Name: "second", Entity: orderKey(fmt.Sprintf("B%d", n)),
				Data: map[string]interface{}{"n": n + chains, "for": fmt.Sprintf("B%d", n)}}
			ctx.Emit(next)
			k.emitted = ctx.emitted[0]
		}
		last[ctx] = k
		held = append(held, k)
		return nil
	}
	def.Step("first", step).Step("second", step)
	if err := e.Register(def); err != nil {
		t.Fatal(err)
	}
	e.Start()
	for i := 0; i < chains; i++ {
		id := fmt.Sprintf("A%d", i)
		if err := e.Submit(&queue.Event{Name: "first", Entity: orderKey(id), TxnID: "entry-" + id,
			Data: map[string]interface{}{"n": i, "for": id}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	waitForSteps(t, e, 2*chains)
	e.Stop()

	mu.Lock()
	defer mu.Unlock()
	for _, p := range problems {
		t.Error(p)
	}
	if len(last) > 2 {
		t.Errorf("%d frames served 2 workers: frames are not being reused", len(last))
	}
	// What the handlers kept is as they saw it: reuse cleared the frames and
	// the messages, never the maps and events the handlers were given.
	for _, k := range held {
		if len(k.data) != 2 || k.data["n"] != k.n {
			t.Fatalf("step %d's event data was rewritten after it returned: %v", k.n, k.data)
		}
		if k.emitted.Name == "second" && (k.emitted.Data["n"] != k.n+chains || k.emitted.TxnID == "") {
			t.Fatalf("step %d's emitted event was rewritten after it returned: %+v", k.n, k.emitted)
		}
	}
}

// A vertically collapsed child runs while its parent's emitted events are
// still being dispatched, so it must not run in its parent's frame.
func TestCollapsedChildrenDoNotClobberParentFrame(t *testing.T) {
	e, mgr, _ := newEngine(t, Options{CollapseVertical: true})
	var ran []string
	def := NewDefinition("fanout")
	def.Step("parent", func(ctx *StepContext) error {
		for _, name := range []string{"c1", "c2", "c3"} {
			ctx.Emit(queue.Event{Name: "child", Entity: ctx.Event.Entity, Data: map[string]interface{}{"name": name}})
		}
		return ctx.Txn.Update(ctx.Event.Entity, entity.Set("status", "PARENT"))
	})
	def.Step("child", func(ctx *StepContext) error {
		name := ctx.Event.Data["name"].(string)
		ran = append(ran, name)
		// A grandchild, so the child's own frame is in use while it dispatches.
		ctx.Emit(queue.Event{Name: "leaf", Entity: ctx.Event.Entity, Data: map[string]interface{}{"name": name + "/leaf"}})
		return ctx.Txn.Update(ctx.Event.Entity, entity.Delta("total", 1))
	})
	def.Step("leaf", func(ctx *StepContext) error {
		ran = append(ran, ctx.Event.Data["name"].(string))
		return ctx.Txn.Update(ctx.Event.Entity, entity.Delta("total", 10))
	})
	if err := e.Register(def); err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(&queue.Event{Name: "parent", Entity: orderKey("O1"), TxnID: "p1"}, nil); err != nil {
		t.Fatal(err)
	}
	e.Drain()
	if got, want := fmt.Sprint(ran), "[c1 c1/leaf c2 c2/leaf c3 c3/leaf]"; got != want {
		t.Fatalf("ran %s, want %s", got, want)
	}
	st, _, err := mgr.DB().Current(orderKey("O1"))
	if err != nil || st.Float("total") != 33 || st.StringField("status") != "PARENT" {
		t.Fatalf("state %v (%v), want total 33 and status PARENT", st, err)
	}
	if s := e.Stats(); s.StepsExecuted != 7 || s.Collapsed != 6 {
		t.Fatalf("stats %+v, want 7 steps, 6 of them collapsed", s)
	}
}
