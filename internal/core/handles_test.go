package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/entity"
	"repro/internal/lsdb"
	"repro/internal/process"
	"repro/internal/queue"
	"repro/internal/storage"
	"repro/internal/workload"
)

// handleChains drives three-step chains — order.placed (Order) →
// account.charge (Account) → order.done (Order), each step counting itself
// on its entity — over a small hot key set, and checks every chain ran each
// step exactly once and every order saw its chains in submission order.
type handleChains struct {
	orders, accounts int

	mu      sync.Mutex
	seen    map[string]int // order ID → the highest chain number its first step has run
	reorder []string
	done    chan struct{} // one token per finished chain
}

func newHandleChains(orders, accounts int) *handleChains {
	return &handleChains{orders: orders, accounts: accounts, seen: map[string]int{}, done: make(chan struct{}, 1<<16)}
}

func (c *handleChains) define(t *testing.T, k *Kernel) {
	t.Helper()
	def := process.NewDefinition("handles")
	def.Step("order.placed", func(ctx *process.StepContext) error {
		n := ctx.Event.Data["n"].(int)
		c.mu.Lock()
		// A redelivery after a refused commit runs the same chain again.
		if last := c.seen[ctx.Event.Entity.ID]; n < last {
			c.reorder = append(c.reorder, fmt.Sprintf("%s: chain %d after %d", ctx.Event.Entity, n, last))
		} else {
			c.seen[ctx.Event.Entity.ID] = n
		}
		c.mu.Unlock()
		if err := ctx.Txn.Update(ctx.Event.Entity, entity.Delta("total", 1)); err != nil {
			return err
		}
		ctx.Emit(queue.Event{Name: "account.charge", Entity: accountKey(fmt.Sprintf("H%d", n%c.accounts)),
			Data: map[string]interface{}{"order": ctx.Event.Entity}})
		return nil
	})
	def.Step("account.charge", func(ctx *process.StepContext) error {
		if err := ctx.Txn.Update(ctx.Event.Entity, entity.Delta("balance", 1)); err != nil {
			return err
		}
		ctx.Emit(queue.Event{Name: "order.done", Entity: ctx.Event.Data["order"].(entity.Key)})
		return nil
	})
	def.Step("order.done", func(ctx *process.StepContext) error {
		if err := ctx.Txn.Update(ctx.Event.Entity, entity.Delta("total", 1)); err != nil {
			return err
		}
		c.done <- struct{}{}
		return nil
	})
	if err := k.DefineProcess(def); err != nil {
		t.Fatal(err)
	}
}

// submit runs chains first..last-1 from two producers, each owning half the
// orders so every order's chains are submitted in order, and waits for them.
func (c *handleChains) submit(t *testing.T, k *Kernel, first, last int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for p := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := first; n < last; n++ {
				if n%c.orders%2 != p {
					continue
				}
				ev := queue.Event{Name: "order.placed", Entity: orderKey(fmt.Sprintf("H%d", n%c.orders)),
					TxnID: fmt.Sprintf("chain-%d", n), Data: map[string]interface{}{"n": n}}
				if err := k.Submit(ev); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	deadline := time.After(time.Minute)
	for range last - first {
		select {
		case <-c.done:
		case <-deadline:
			t.Fatalf("chains %d..%d did not finish: %+v", first, last, k.ProcessStats())
		}
	}
}

// check reads every hot entity once k has committed steps steps: each order
// counts two steps per chain of its, each account one per chain of its, so a
// step run twice or never shows.
func (c *handleChains) check(t *testing.T, k *Kernel, chains int, steps uint64) {
	t.Helper()
	// A chain's last handler returns before its step commits.
	for deadline := time.Now().Add(time.Minute); k.ProcessStats().StepsExecuted < steps; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d steps committed, want %d", k.ProcessStats().StepsExecuted, steps)
		}
	}
	orders, accounts := map[string]float64{}, map[string]float64{}
	for n := range chains {
		orders[fmt.Sprintf("H%d", n%c.orders)] += 2
		accounts[fmt.Sprintf("H%d", n%c.accounts)]++
	}
	for id, want := range orders {
		if st, err := k.Read(orderKey(id)); err != nil || st.Float("total") != want {
			t.Errorf("order %s: total %v (%v), want %v", id, st.Float("total"), err, want)
		}
	}
	for id, want := range accounts {
		if st, err := k.Read(accountKey(id)); err != nil || st.Float("balance") != want {
			t.Errorf("account %s: balance %v (%v), want %v", id, st.Float("balance"), err, want)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.reorder) > 0 {
		t.Errorf("orders saw their chains out of submission order: %v", c.reorder)
	}
}

// TestKeyHandlesUnderConcurrentSteps races the entity handles' whole life
// against the steps delivered through them: chains over a hot key set while
// the store checkpoints and compacts, while writes on new keys are refused
// (their entries dropped) as events for those keys resolve handles, and
// across Close and a Bootstrap that recovers the store with new handles.
// Every chain must run each step exactly once, and every order must see its
// chains in submission order.
func TestKeyHandlesUnderConcurrentSteps(t *testing.T) {
	const orders, accounts, perPhase = 16, 4, 300

	// Phase 1: a store whose appends can be refused. A refused first write
	// drops its entry unless an event resolved the entity's handle first;
	// either way the event's chain runs, once.
	fb := storage.NewFaultBackend(storage.NewMemory())
	k, err := Bootstrap(Options{Node: "kh", Units: 1, UnitBackends: []storage.Backend{fb}, RearmAfter: time.Microsecond},
		workload.Types()...)
	if err != nil {
		t.Fatal(err)
	}
	c := newHandleChains(orders, accounts)
	c.define(t, k)
	k.Start()
	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(1)
	go func() {
		defer bg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			fresh := orderKey(fmt.Sprintf("new-%d", i))
			fb.FailAppends(1)
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				if _, err := k.Update(fresh, entity.Set("status", "OPEN")); err != nil && !errors.Is(err, lsdb.ErrDegraded) {
					t.Errorf("update %s: %v", fresh, err)
				}
			}()
			go func() {
				defer wg.Done()
				_ = k.Submit(queue.Event{Name: "unhandled.event", Entity: fresh, TxnID: fmt.Sprintf("fresh-%d", i)})
			}()
			wg.Wait()
			k.Compact()
			if err := k.Checkpoint(); err != nil && !errors.Is(err, lsdb.ErrDegraded) {
				t.Errorf("checkpoint: %v", err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	c.submit(t, k, 0, perPhase)
	close(stop)
	bg.Wait()
	fb.FailAppends(0)
	c.check(t, k, perPhase, 3*perPhase)
	k.Close()

	// Phases 2 and 3: a tiered store, checkpointed (flushed, cold entries
	// evicted) and compacted under the chains, then closed and bootstrapped
	// again from its directory: the recovered store's handles are new, and
	// the chains go on through them.
	opts := Options{Node: "kh", Units: 2, DataDir: t.TempDir(), CheckpointEvery: 64}
	c = newHandleChains(orders, accounts)
	for phase := range 2 {
		if k, err = Bootstrap(opts, workload.Types()...); err != nil {
			t.Fatal(err)
		}
		c.define(t, k)
		k.Start()
		stop := make(chan struct{})
		bg.Add(1)
		go func() {
			defer bg.Done()
			for {
				select {
				case <-stop:
					return
				case <-time.After(time.Millisecond):
				}
				k.Compact()
				if err := k.Checkpoint(); err != nil {
					t.Errorf("checkpoint: %v", err)
				}
			}
		}()
		c.submit(t, k, phase*perPhase, (phase+1)*perPhase)
		close(stop)
		bg.Wait()
		c.check(t, k, (phase+1)*perPhase, 3*perPhase)
		k.Close()
	}
}
