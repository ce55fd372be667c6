package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/entity"
)

// The convergence rule (docs/CONCURRENCY.md): after CatchUpAggregates
// returns, every aggregate equals the same fold over Query's live states.

func readSum(t *testing.T, k *Kernel, name, group string) float64 {
	t.Helper()
	v, err := k.Sum(name, group)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// A withdrawn promise leaves the aggregate once it is caught up: the mark
// reaches the maintainer, and a withdrawn first write folds as removal.
func TestAggregateDropsBrokenPromise(t *testing.T) {
	k := newKernel(t, Options{Node: "agg", Units: 2})
	k.DefineSumAggregate("balances", "Account", "balance", "")
	k.Update(accountKey("A1"), entity.Set("balance", 100.0))
	k.Update(accountKey("A2"), entity.Set("balance", 10.0))
	p, err := k.UpdateTentative(accountKey("A3"), "partner", "hold", 50, entity.Set("balance", 50.0))
	if err != nil {
		t.Fatal(err)
	}
	k.CatchUpAggregates()
	if v := readSum(t, k, "balances", ""); v != 160 {
		t.Fatalf("with the promise pending: sum = %v, want 160", v)
	}
	if _, err := k.BreakPromise(p.ID, "no stock", "coupon"); err != nil {
		t.Fatal(err)
	}
	k.CatchUpAggregates()
	if v := readSum(t, k, "balances", ""); v != 110 {
		t.Fatalf("after BreakPromise: sum = %v, want 110 (the live states)", v)
	}
}

// A restarted kernel's aggregate covers the settled tier, not only the log
// tail written after the last flush.
func TestAggregateCoversSettledTierAfterRestart(t *testing.T) {
	opts := Options{Node: "agg", Units: 2, DataDir: t.TempDir()}
	k := newKernel(t, opts)
	k.Update(accountKey("A1"), entity.Set("balance", 100.0))
	if err := k.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	k.Update(accountKey("A2"), entity.Set("balance", 10.0))
	k.Close()

	k = newKernel(t, opts)
	k.DefineSumAggregate("balances", "Account", "balance", "")
	k.CatchUpAggregates()
	if v := readSum(t, k, "balances", ""); v != 110 {
		t.Fatalf("after restart: sum = %v, want 110", v)
	}
}

// Compaction changes no state, so compacting before a catch-up strands no
// contribution.
func TestAggregateSurvivesCompactBeforeCatchUp(t *testing.T) {
	k := newKernel(t, Options{Node: "agg", Units: 2})
	k.DefineSumAggregate("revenue", "Order", "total", "")
	for i := range 10 {
		k.Update(orderKey(fmt.Sprintf("O%d", i)), entity.Set("total", 10.0))
	}
	if k.Compact() == 0 {
		t.Fatal("nothing compacted")
	}
	k.CatchUpAggregates()
	if v := readSum(t, k, "revenue", ""); v != 100 {
		t.Fatalf("after compact: sum = %v, want 100", v)
	}
}

// The definitions the fold checks below cover: a global and a grouped sum, a
// grouped count and an index, all over Order, keyed on status.
func defineOrderAggregates(k *Kernel) {
	k.DefineSumAggregate("revenue", "Order", "total", "")
	k.DefineSumAggregate("revenue-by-status", "Order", "total", "status")
	k.DefineCountAggregate("orders", "Order", "status")
	k.DefineIndex("orders-by-status", "Order", "status")
}

var orderStatuses = []string{"OPEN", "PAID", "SHIPPED"}

// assertAggregateFold catches up and checks the convergence rule: every
// aggregate defineOrderAggregates declares equals the same fold over
// Query's live orders, and nothing is left unfolded.
func assertAggregateFold(t *testing.T, k *Kernel, context string) {
	t.Helper()
	k.CatchUpAggregates()
	var revenue float64
	sums, counts := map[string]float64{}, map[string]int{}
	index := map[string][]string{}
	err := k.Query("Order", func(st *entity.State) bool {
		if st.Deleted {
			return true
		}
		status := st.StringField("status")
		revenue += st.Float("total")
		sums[status] += st.Float("total")
		counts[status]++
		value := fmt.Sprintf("%v", st.Fields["status"])
		index[value] = append(index[value], st.Key.ID)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := readSum(t, k, "revenue", ""); got != revenue {
		t.Fatalf("%s: revenue = %v, the fold over Query gives %v", context, got, revenue)
	}
	for _, status := range append([]string{""}, orderStatuses...) {
		if got := readSum(t, k, "revenue-by-status", status); got != sums[status] {
			t.Fatalf("%s: revenue[%q] = %v, the fold gives %v", context, status, got, sums[status])
		}
		if got, _ := k.Count("orders", status); got != counts[status] {
			t.Fatalf("%s: orders[%q] = %d, the fold gives %d", context, status, got, counts[status])
		}
	}
	for _, value := range append([]string{"<nil>"}, orderStatuses...) {
		got, err := k.Lookup("orders-by-status", value)
		if err != nil {
			t.Fatal(err)
		}
		want := index[value]
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: index[%q] = %v, the fold gives %v", context, value, got, want)
		}
	}
	if n := k.AggregateStaleness(); n != 0 {
		t.Fatalf("%s: %d records unfolded after catch-up", context, n)
	}
}

// TestAggregatesEqualQueryFold drives a durable kernel through seeded random
// schedules of updates, tentative writes, kept and broken promises,
// compactions, flushes, restarts, late definitions and backup imports, and
// checks the convergence rule at random points and at the end.
func TestAggregatesEqualQueryFold(t *testing.T) {
	seeds, steps := 12, 300
	if testing.Short() {
		seeds = 4
	}
	for seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runAggregateSchedule(t, rand.New(rand.NewSource(int64(seed))), steps)
		})
	}
}

func runAggregateSchedule(t *testing.T, r *rand.Rand, steps int) {
	opts := Options{Node: "fold", Units: 2, DataDir: t.TempDir(), CheckpointEvery: 40}
	k := newKernel(t, opts)
	defined := r.Intn(2) == 0
	if defined {
		defineOrderAggregates(k)
	}
	var promises []string
	order := func() entity.Key { return orderKey(fmt.Sprintf("O%d", r.Intn(12))) }
	amount := func() float64 { return float64(r.Intn(50) + 1) }
	for step := range steps {
		context := fmt.Sprintf("step %d", step)
		switch op := r.Intn(100); {
		case op < 30:
			var o entity.Op
			switch r.Intn(10) {
			case 0:
				o = entity.Delete()
			case 1, 2, 3:
				o = entity.Set("status", orderStatuses[r.Intn(len(orderStatuses))])
			case 4, 5:
				o = entity.Delta("total", amount())
			default:
				o = entity.Set("total", amount())
			}
			k.Update(order(), o)
		case op < 33:
			// Another type's writes are no aggregate's concern.
			k.Update(accountKey("A1"), entity.Delta("balance", 1))
		case op < 45:
			o := entity.Delta("total", amount())
			if r.Intn(2) == 0 {
				o = entity.Set("total", amount())
			}
			if p, err := k.UpdateTentative(order(), "partner", "hold", 1, o); err == nil {
				promises = append(promises, p.ID)
			}
		case op < 53 && len(promises) > 0:
			i := r.Intn(len(promises))
			id := promises[i]
			promises = slices.Delete(promises, i, i+1)
			if r.Intn(2) == 0 {
				k.KeepPromise(id)
			} else {
				k.BreakPromise(id, "declined", "")
			}
		case op < 58:
			k.Compact()
		case op < 62:
			if err := k.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		case op < 65:
			// Durable restart: aggregate definitions are not log state and
			// start over; promises are, so the ids made before it are
			// still settled after it.
			k.Close()
			k = newKernel(t, opts)
			if defined {
				defineOrderAggregates(k)
			}
		case op < 67:
			// Restore a backup into a fresh node whose aggregates are
			// defined before the import.
			var backup bytes.Buffer
			if err := k.Export(&backup); err != nil {
				t.Fatal(err)
			}
			k.Close()
			opts.DataDir = t.TempDir()
			k = newKernel(t, opts)
			promises = nil
			if defined {
				defineOrderAggregates(k)
			}
			if err := k.Import(&backup); err != nil {
				t.Fatal(err)
			}
		case op < 70:
			defined = true
			defineOrderAggregates(k)
		case op < 80 && defined:
			assertAggregateFold(t, k, context)
		}
	}
	if !defined {
		defineOrderAggregates(k)
	}
	assertAggregateFold(t, k, "end")
}

// TestAggregateConcurrentFold runs writers, promise breaks (settlement
// records) and catch-ups against one unit at once; once they stop, one
// catch-up brings every aggregate to the fold over Query.
func TestAggregateConcurrentFold(t *testing.T) {
	k := newKernel(t, Options{Node: "race", Units: 1})
	defineOrderAggregates(k)
	const writers, per = 4, 60
	stop := make(chan struct{})
	var catchUps sync.WaitGroup
	catchUps.Add(1)
	go func() {
		defer catchUps.Done()
		for {
			select {
			case <-stop:
				return
			default:
				k.CatchUpAggregates()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range per {
				key := orderKey(fmt.Sprintf("O%d", (w*per+i)%17))
				switch i % 4 {
				case 0:
					k.Update(key, entity.Set("status", orderStatuses[i%3]))
				case 1:
					p, err := k.UpdateTentative(key, "partner", "hold", 1, entity.Delta("total", float64(i)))
					if err == nil {
						k.BreakPromise(p.ID, "declined", "")
					}
				case 2:
					if p, err := k.UpdateTentative(key, "partner", "hold", 1, entity.Set("total", float64(w))); err == nil {
						k.KeepPromise(p.ID)
					}
				default:
					k.Update(key, entity.Delta("total", 1))
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	catchUps.Wait()
	assertAggregateFold(t, k, "after the writers")
}
