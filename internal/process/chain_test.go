package process

import (
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/entity"
	"repro/internal/queue"
)

// chainWindow is how many chains the chain driver keeps in flight, the same
// closed loop the repository benchmark's kernel_events workload runs.
const chainWindow = 64

// chainDriver runs three-step cross-entity chains on a started engine:
// order.created (Order) → inventory.reserve (Inventory) → shipment.create
// (Order), one focused transaction and one emitted event per step.
type chainDriver struct {
	e     *Engine
	slots chan struct{} // one token per chain in flight
	next  int
}

func newChainDriver(tb testing.TB, workers int) *chainDriver {
	tb.Helper()
	e, _, _ := newEngine(tb, Options{Workers: workers})
	d := &chainDriver{e: e, slots: make(chan struct{}, chainWindow)}
	def := NewDefinition("chain")
	def.Step("order.created", func(ctx *StepContext) error {
		if err := ctx.Txn.Update(ctx.Event.Entity, entity.Set("status", "CONFIRMED")); err != nil {
			return err
		}
		ctx.Emit(queue.Event{Name: "inventory.reserve", Entity: ctx.Event.Data["item"].(entity.Key),
			Data: map[string]interface{}{"order": ctx.Event.Entity}})
		return nil
	})
	def.Step("inventory.reserve", func(ctx *StepContext) error {
		if err := ctx.Txn.Update(ctx.Event.Entity, entity.Delta("onhand", -1)); err != nil {
			return err
		}
		ctx.Emit(queue.Event{Name: "shipment.create", Entity: ctx.Event.Data["order"].(entity.Key)})
		return nil
	})
	def.Step("shipment.create", func(ctx *StepContext) error {
		if err := ctx.Txn.Update(ctx.Event.Entity, entity.Set("status", "SHIPMENT-PLANNED")); err != nil {
			return err
		}
		<-d.slots
		return nil
	})
	if err := e.Register(def); err != nil {
		tb.Fatal(err)
	}
	e.Start()
	tb.Cleanup(e.Stop)
	return d
}

// run submits n chains, never more than chainWindow ahead of the last step,
// and returns once the engine has counted all 3n steps.
func (d *chainDriver) run(tb testing.TB, n int) {
	want := d.e.Stats().StepsExecuted + 3*uint64(n)
	for i := 0; i < n; i++ {
		d.slots <- struct{}{}
		id := strconv.Itoa(d.next)
		ev := queue.Event{Name: "order.created", Entity: orderKey("O" + id), TxnID: "entry-" + id,
			Data: map[string]interface{}{"item": inventoryKey("item-" + strconv.Itoa(d.next%97))}}
		d.next++
		if err := d.e.Submit(ev); err != nil {
			tb.Fatal(err)
		}
	}
	deadline := time.Now().Add(time.Minute)
	for d.e.Stats().StepsExecuted < want {
		if time.Now().After(deadline) {
			tb.Fatalf("timed out: %+v", d.e.Stats())
		}
		runtime.Gosched()
	}
}

// measure runs n chains and returns what one step of them allocated.
func (d *chainDriver) measure(tb testing.TB, n int) (bytesPerStep, allocsPerStep float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d.run(tb, n)
	runtime.ReadMemStats(&after)
	steps := float64(3 * n)
	return float64(after.TotalAlloc-before.TotalAlloc) / steps, float64(after.Mallocs-before.Mallocs) / steps
}

// BenchmarkStepChain measures what one process step costs end to end —
// enqueue, claim, handler, focused transaction, commit, emit — on the
// three-step chain, in time and in garbage.
func BenchmarkStepChain(b *testing.B) {
	d := newChainDriver(b, 2)
	d.run(b, 512) // warm up
	b.ResetTimer()
	bytes, allocs := d.measure(b, b.N)
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(3*b.N), "ns/step")
	b.ReportMetric(bytes, "B/step")
	b.ReportMetric(allocs, "allocs/step")
}

// The step budget, in allocations and in bytes (history in EXPERIMENTS.md
// E19: 17.7 allocations and 2447 B a step before the commit-path diet, 9.7
// and about 1130 B after it, 7.7 and about 840 B once a commit wrote an
// unlent cached state in place and a serial writer's ids built no map; 7.7
// and about 800 B now that the log keeps each record encoded, about 100 B
// with its table entries, instead of a 160 B Go value holding on to its ops
// and id). What is left, per step: 3.7 allocations are this driver's own —
// the ids, event data and op slices its handlers build; 1.0 the transaction
// id; 0.7 the emitted event's id; 1.0 the first touch of each chain's order
// (State, field map, entry); 0.5 boxing the new field values. The record's
// share of its log segment is amortised: the measurement spans several
// segment seals per shard.
const (
	stepAllocBudget = 8.0
	stepBytesBudget = 840.0
)

// TestStepAllocationBudget pins the per-step garbage of the chain: a
// regression that puts a copy, a map or a Sprintf back on the step path
// fails here rather than in the benchmark.
func TestStepAllocationBudget(t *testing.T) {
	d := newChainDriver(t, 2)
	d.run(t, 512) // warm up: first-touch entities, map growth
	// Long enough to seal each shard's log segment a few times, so a step
	// pays its record's share of the segments, first one included.
	bytes, allocs := d.measure(t, 32768)
	t.Logf("a step allocates %.2f times and %.0f B", allocs, bytes)
	if allocs > stepAllocBudget || bytes > stepBytesBudget {
		t.Fatalf("a step allocates %.1f times and %.0f B, budget %.1f and %.0f", allocs, bytes, stepAllocBudget, stepBytesBudget)
	}
}
