package process

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/entity"
	"repro/internal/partition"
	"repro/internal/queue"
)

// recorder captures the per-entity sequence of successfully executed steps.
type recorder struct {
	mu   sync.Mutex
	seen map[entity.Key][]int
}

func newRecorder() *recorder { return &recorder{seen: map[entity.Key][]int{}} }

func (r *recorder) record(key entity.Key, seq int) {
	r.mu.Lock()
	r.seen[key] = append(r.seen[key], seq)
	r.mu.Unlock()
}

func (r *recorder) total() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, s := range r.seen {
		n += len(s)
	}
	return n
}

// TestPerEntityOrderingUnderConcurrentWritersAndRetries is the ordering
// stress suite of the worker pool: N writer goroutines submit M entities'
// steps concurrently while every third step fails its first delivery
// (exercising the retry-in-place-and-park path), and the pool runs with
// eight workers. Each entity's observed execution
// sequence must equal its enqueue sequence exactly — the contract of
// docs/CONCURRENCY.md. Run under -race in CI.
func TestPerEntityOrderingUnderConcurrentWritersAndRetries(t *testing.T) {
	const (
		writers   = 4
		perWriter = 4  // entities per writer (disjoint, so enqueue order per entity is the writer's order)
		perEntity = 30 // steps per entity
		workers   = 8
	)
	e, _, _ := newEngine(t, Options{Workers: workers, MaxAttempts: 5, RetryBackoff: 200 * time.Microsecond})

	rec := newRecorder()
	var failedOnce sync.Map // "entity|seq" -> struct{}{}, to fail only the first delivery
	def := NewDefinition("ordered")
	def.Step("seq.step", func(ctx *StepContext) error {
		seq := ctx.Event.Data["seq"].(int)
		if seq%3 == 0 {
			id := ctx.Event.Entity.String() + "|" + fmt.Sprint(seq)
			if _, loaded := failedOnce.LoadOrStore(id, struct{}{}); !loaded {
				return errors.New("injected transient failure")
			}
		}
		if err := ctx.Txn.Update(ctx.Event.Entity, entity.Delta("total", 1)); err != nil {
			return err
		}
		rec.record(ctx.Event.Entity, seq)
		return nil
	})
	if err := e.Register(def); err != nil {
		t.Fatal(err)
	}

	e.Start()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each writer owns disjoint entities and submits each entity's
			// steps in sequence order, so enqueue order per entity is 0..N-1.
			for seq := 0; seq < perEntity; seq++ {
				for ent := 0; ent < perWriter; ent++ {
					key := orderKey(fmt.Sprintf("W%d-E%d", w, ent))
					ev := queue.Event{
						Name:   "seq.step",
						Entity: key,
						TxnID:  fmt.Sprintf("%s#%d", key.ID, seq),
						Data:   map[string]interface{}{"seq": seq},
					}
					if err := e.Submit(&ev, nil); err != nil {
						t.Errorf("Submit: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	want := writers * perWriter * perEntity
	deadline := time.Now().Add(30 * time.Second)
	for rec.total() < want {
		if time.Now().After(deadline) {
			t.Fatalf("timed out: %d/%d steps executed (stats %+v)", rec.total(), want, e.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	e.Stop()

	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.seen) != writers*perWriter {
		t.Fatalf("entities observed = %d, want %d", len(rec.seen), writers*perWriter)
	}
	for key, got := range rec.seen {
		if len(got) != perEntity {
			t.Fatalf("%s executed %d steps, want %d", key, len(got), perEntity)
		}
		for i, seq := range got {
			if seq != i {
				t.Fatalf("%s reordered: position %d ran seq %d (full: %v)", key, i, seq, got)
			}
		}
	}
	stats := e.Stats()
	if stats.Retries == 0 {
		t.Fatal("injected failures never retried — the stress did not stress")
	}
}

// TestWorkersShareEntitiesRegardlessOfKey pins down that nothing but
// ownership limits parallelism: every submitted entity hashes to the same
// partition.KeyShard slot, so a scheduler with per-worker affinity would
// run them on one worker — here any idle worker claims the next runnable
// entity, and the steps must overlap.
func TestWorkersShareEntitiesRegardlessOfKey(t *testing.T) {
	const workers = 4
	e, mgr, _ := newEngine(t, Options{Workers: workers})
	var running, peak atomic.Int32
	def := NewDefinition("share")
	def.Step("slow.step", func(ctx *StepContext) error {
		now := running.Add(1)
		for {
			p := peak.Load()
			if now <= p || peak.CompareAndSwap(p, now) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond) // long enough that entities pile up
		running.Add(-1)
		return ctx.Txn.Update(ctx.Event.Entity, entity.Delta("total", 1))
	})
	if err := e.Register(def); err != nil {
		t.Fatal(err)
	}

	var keys []entity.Key
	for i := 0; len(keys) < 24; i++ {
		key := orderKey(fmt.Sprintf("H%d", i))
		if partition.ShardOf(partition.KeyHash(key), workers) == 0 {
			keys = append(keys, key)
		}
	}
	for i, key := range keys {
		if err := e.Submit(&queue.Event{Name: "slow.step", Entity: key, TxnID: fmt.Sprintf("s%d", i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	e.Start()
	deadline := time.Now().Add(30 * time.Second)
	for e.Stats().StepsExecuted < uint64(len(keys)) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out: %d/%d steps (stats %+v)", e.Stats().StepsExecuted, len(keys), e.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	e.Stop()
	if got := peak.Load(); got < 2 {
		t.Fatalf("at most %d step ran at a time with %d workers and %d runnable entities", got, workers, len(keys))
	}
	for _, key := range keys {
		st, _, err := mgr.DB().Current(key)
		if err != nil || st.Float("total") != 1 {
			t.Fatalf("%s = %v, %v", key, st, err)
		}
	}
}

// TestPoolCollapsesOnlySameEntityChildren verifies the ownership rule:
// under the pool, a vertically collapsed child may only run inline when it
// targets the parent's own entity; children of other entities go through
// the queue (and their own entity's owner).
func TestPoolCollapsesOnlySameEntityChildren(t *testing.T) {
	e, mgr, _ := newEngine(t, Options{Workers: 2, CollapseVertical: true})
	def := NewDefinition("chain")
	def.Step("parent.step", func(ctx *StepContext) error {
		if err := ctx.Txn.Update(ctx.Event.Entity, entity.Set("status", "PARENT")); err != nil {
			return err
		}
		// Same entity: eligible for inline collapse under the lane.
		ctx.Emit(queue.Event{Name: "same.child", Entity: ctx.Event.Entity})
		// Different entity: must travel through the queue.
		ctx.Emit(queue.Event{Name: "other.child", Entity: inventoryKey("widget")})
		return nil
	})
	def.Step("same.child", func(ctx *StepContext) error {
		return ctx.Txn.Update(ctx.Event.Entity, entity.Set("status", "CHILD"))
	})
	def.Step("other.child", func(ctx *StepContext) error {
		return ctx.Txn.Update(ctx.Event.Entity, entity.Delta("onhand", 1))
	})
	if err := e.Register(def); err != nil {
		t.Fatal(err)
	}
	e.Start()
	if err := e.Submit(&queue.Event{Name: "parent.step", Entity: orderKey("O1"), TxnID: "p1"}, nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for e.Stats().StepsExecuted < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("timed out: stats %+v", e.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	e.Stop()
	stats := e.Stats()
	if stats.Collapsed != 1 {
		t.Fatalf("collapsed = %d, want exactly the same-entity child", stats.Collapsed)
	}
	order, _, _ := mgr.DB().Current(orderKey("O1"))
	if order.StringField("status") != "CHILD" {
		t.Fatalf("order status = %q", order.StringField("status"))
	}
	inv, _, _ := mgr.DB().Current(inventoryKey("widget"))
	if inv.Int("onhand") != 1 {
		t.Fatalf("inventory = %d", inv.Int("onhand"))
	}
}

// TestCompensationRunsAfterLaneRetriesExhausted exercises the in-place
// retry path to its end: a permanently failing step must park-and-retry
// MaxAttempts times and then hand the event to its compensation handler,
// without blocking the entity's later steps forever.
func TestCompensationRunsAfterLaneRetriesExhausted(t *testing.T) {
	e, mgr, _ := newEngine(t, Options{Workers: 2, MaxAttempts: 3, RetryBackoff: 100 * time.Microsecond})
	compCh := make(chan int, 1)
	def := NewDefinition("doomed")
	def.Step("doomed.step", func(ctx *StepContext) error {
		return errors.New("permanent failure")
	})
	def.OnFailure("doomed.step", func(ev queue.Event, attempts int, lastErr error) {
		compCh <- attempts
	})
	def.Step("after.step", func(ctx *StepContext) error {
		return ctx.Txn.Update(ctx.Event.Entity, entity.Set("status", "AFTER"))
	})
	if err := e.Register(def); err != nil {
		t.Fatal(err)
	}
	e.Start()
	key := orderKey("O1")
	e.Submit(&queue.Event{Name: "doomed.step", Entity: key, TxnID: "d1"}, nil)
	e.Submit(&queue.Event{Name: "after.step", Entity: key, TxnID: "a1"}, nil)
	var attempts int
	select {
	case attempts = <-compCh:
	case <-time.After(10 * time.Second):
		t.Fatalf("compensation never ran: %+v", e.Stats())
	}
	if attempts != 3 {
		t.Fatalf("compensation saw %d attempts, want 3", attempts)
	}
	// The later step for the same entity still executes — after the doomed
	// one resolved, never before it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, _, err := mgr.DB().Current(key)
		if err == nil && st.StringField("status") == "AFTER" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after.step never ran: %v, %v", st, err)
		}
		time.Sleep(time.Millisecond)
	}
	e.Stop()
	if got := e.Stats().Compensations; got != 1 {
		t.Fatalf("compensations = %d", got)
	}
}

// TestHotLaneYieldsToOtherLanes pins the fairness budget down: with one
// worker and a hot entity whose backlog exceeds laneBudget, a second
// entity's single step must run before the hot entity finishes — the hot
// entity goes to the back of the run list at the budget instead of
// monopolising the worker.
func TestHotLaneYieldsToOtherLanes(t *testing.T) {
	const hotSteps = laneBudget + 40
	e, _, _ := newEngine(t, Options{Workers: 1})
	var hotDone atomic.Int32
	var hotWhenColdRan atomic.Int32
	coldRan := make(chan struct{})
	def := NewDefinition("fairness")
	def.Step("hot.step", func(ctx *StepContext) error {
		time.Sleep(50 * time.Microsecond)
		hotDone.Add(1)
		return ctx.Txn.Update(ctx.Event.Entity, entity.Delta("total", 1))
	})
	def.Step("cold.step", func(ctx *StepContext) error {
		hotWhenColdRan.Store(hotDone.Load())
		close(coldRan)
		return ctx.Txn.Update(ctx.Event.Entity, entity.Delta("total", 1))
	})
	if err := e.Register(def); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < hotSteps; i++ {
		e.Submit(&queue.Event{Name: "hot.step", Entity: orderKey("HOT"), TxnID: fmt.Sprintf("h%d", i)}, nil)
	}
	e.Submit(&queue.Event{Name: "cold.step", Entity: orderKey("COLD"), TxnID: "c0"}, nil)
	e.Start()
	select {
	case <-coldRan:
	case <-time.After(30 * time.Second):
		t.Fatalf("cold entity starved behind the hot one: %+v", e.Stats())
	}
	deadline := time.Now().Add(30 * time.Second)
	for e.Stats().StepsExecuted < hotSteps+1 {
		if time.Now().After(deadline) {
			t.Fatalf("timed out: %+v", e.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	e.Stop()
	if got := hotWhenColdRan.Load(); got >= hotSteps {
		t.Fatalf("cold step ran only after all %d hot steps", hotSteps)
	}
}
