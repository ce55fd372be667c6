package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/lsdb"
	"repro/internal/queue"
	"repro/internal/workload"
)

// kernel_events runs the paper's own mechanism with no HTTP in the way: two
// producers submit order.created events to an in-process kernel, each entry
// event runs a three-step chain in the shape of examples/ordertocash
// (order.created → inventory.reserve → shipment.create, one focused
// transaction and one emitted event per step), and inventory items are drawn
// zipfian so some per-entity lanes serialise. The loop is closed on chains in
// flight: a producer takes one of eventWindow slots before it submits and the
// chain's last step gives it back. (Holding producers back on
// Kernel.QueueDepth() bounds nothing: the dispatcher leases the whole backlog
// into the lanes at once, so the queue looks empty while tens of thousands of
// events wait, and latency then grows with the length of the run.)
// "Submit" on this workload is
// the inconsistency window: Kernel.Submit call → the entry event's step
// handler returns. "Read" is Kernel.Read of an order submitted a while ago,
// timed in batches of readBatch.

const (
	initialOnhand = 1 << 30
	readBatch     = 8  // Kernel.Read calls per timed batch
	readEvery     = 16 // a producer reads after every readEvery-th submit
	readLookback  = 2048
	depthEvery    = 64 // a producer samples Kernel.QueueDepth() this often
)

// eventStream is the seeded entry-event sequence.
type eventStream struct {
	seed   uint64
	orders uint64
	cdf    []float64 // zipfian cumulative weights over the items
}

func newEventStream(seed, orders, items uint64) *eventStream {
	cdf := make([]float64, items)
	var sum float64
	for r := range cdf {
		sum += 1 / math.Pow(float64(r+1), 1.1)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return &eventStream{seed: seed, orders: orders, cdf: cdf}
}

func (s *eventStream) order(i uint64) repro.Key {
	return repro.Key{Type: "Order", ID: fmt.Sprintf("O-%d", workload.Stride(i, s.orders))}
}

// item draws entry i's inventory item by inverting the zipfian CDF on a
// stateless uniform variate.
func (s *eventStream) item(i uint64) int {
	u := float64(workload.Mix(s.seed^0xe1, i)>>11) / float64(1<<53)
	return sort.SearchFloat64s(s.cdf, u)
}

func itemKey(n int) repro.Key { return repro.Key{Type: "Inventory", ID: fmt.Sprintf("item-%d", n)} }

// sampleSet collects timings from the step workers.
type sampleSet struct {
	mu sync.Mutex
	v  []int64
}

func (s *sampleSet) add(d int64) {
	s.mu.Lock()
	s.v = append(s.v, d)
	s.mu.Unlock()
}

func (s *sampleSet) sorted() []int64 { return sortedCopy(s.v) }

// eventRun is one kernel with the bench-owned process defined on it.
type eventRun struct {
	k      *repro.Kernel
	st     *eventStream
	rec    *recorder // nil when untraced
	epoch  time.Time
	apply  sampleSet // submit → entry step handler returned
	wait   sampleSet // submit → entry step handler entered
	chains atomic.Int64
	lastNS atomic.Int64 // when the latest chain finished, ns since epoch
	cursor atomic.Uint64
	slots  chan struct{} // one token per chain in flight
}

func (r *eventRun) now() int64 { return int64(time.Since(r.epoch)) }

// step wraps a handler body so the traced run records a span per step.
func (r *eventRun) step(name spanName, body func(ctx *repro.StepContext) error) func(ctx *repro.StepContext) error {
	return func(ctx *repro.StepContext) error {
		if r.rec == nil {
			return body(ctx)
		}
		in := r.now()
		err := body(ctx)
		op, _ := ctx.Event.Data["i"].(int64)
		r.rec.add(name, in, r.now(), op)
		return err
	}
}

func newEventRun(st *eventStream, items int, rec *recorder) (*eventRun, error) {
	k, err := repro.Bootstrap(repro.Options{Node: "bench", Units: units}, repro.StandardTypes()...)
	if err != nil {
		return nil, err
	}
	r := &eventRun{k: k, st: st, rec: rec, epoch: time.Now(), slots: make(chan struct{}, eventWindow)}
	if rec != nil {
		r.epoch = rec.epoch
	}
	p := repro.NewProcess("bench-order-to-cash")
	p.Step("order.created", r.step(spStepCreated, func(ctx *repro.StepContext) error {
		in := r.now()
		t0, _ := ctx.Event.Data["t0"].(int64)
		if err := ctx.Txn.Update(ctx.Event.Entity, repro.Set("status", "CONFIRMED")); err != nil {
			return err
		}
		ctx.Emit(repro.Event{Name: "inventory.reserve", Entity: itemKey(ctx.Event.Data["item"].(int)),
			Data: map[string]interface{}{"order": ctx.Event.Entity.ID, "i": ctx.Event.Data["i"]}})
		r.wait.add(in - t0)
		r.apply.add(r.now() - t0)
		return nil
	}))
	p.Step("inventory.reserve", r.step(spStepReserve, func(ctx *repro.StepContext) error {
		if err := ctx.Txn.Update(ctx.Event.Entity, repro.Delta("onhand", -1)); err != nil {
			return err
		}
		ctx.Emit(repro.Event{Name: "shipment.create",
			Entity: repro.Key{Type: "Order", ID: ctx.Event.Data["order"].(string)},
			Data:   map[string]interface{}{"i": ctx.Event.Data["i"]}})
		return nil
	}))
	p.Step("shipment.create", r.step(spStepShipment, func(ctx *repro.StepContext) error {
		if err := ctx.Txn.Update(ctx.Event.Entity, repro.Set("status", "SHIPMENT-PLANNED")); err != nil {
			return err
		}
		r.lastNS.Store(r.now())
		r.chains.Add(1)
		<-r.slots
		return nil
	}))
	if err := k.DefineProcess(p); err != nil {
		k.Close()
		return nil, err
	}
	for n := 0; n < items; n++ {
		if _, err := k.Update(itemKey(n), repro.Set("onhand", int64(initialOnhand))); err != nil {
			k.Close()
			return nil, err
		}
	}
	k.Start()
	return r, nil
}

// produced is what the producers of one phase observed.
type produced struct {
	from, to  uint64
	start     int64 // ns since epoch
	failed    int
	shed      int
	firstErr  string
	reads     []int64 // per-call ns, one value per timed batch
	notFound  int
	peakDepth int
}

// produce submits entry events from the shared cursor until the deadline or
// limit (0: none), never more than eventWindow chains ahead of the last step,
// and returns once every submitted chain has run its last step.
func (r *eventRun) produce(limit uint64, deadline time.Time) (produced, error) {
	out := produced{from: r.cursor.Load(), start: r.now()}
	doneBefore := r.chains.Load()
	type part struct {
		failed, shed, notFound, peak int
		firstErr                     string
		reads                        []int64
	}
	parts := make([]part, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(p *part) {
			defer wg.Done()
			for n := 1; ; n++ {
				r.slots <- struct{}{}
				if !deadline.IsZero() && !time.Now().Before(deadline) {
					<-r.slots
					return
				}
				i := r.cursor.Add(1) - 1
				if limit > 0 && i >= out.from+limit {
					r.cursor.Add(^uint64(0))
					<-r.slots
					return
				}
				if n%depthEvery == 0 {
					if depth := r.k.QueueDepth(); depth > p.peak {
						p.peak = depth
					}
				}
				ev := repro.Event{Name: "order.created", Entity: r.st.order(i), TxnID: fmt.Sprintf("entry-%d", i),
					Data: map[string]interface{}{"item": r.st.item(i), "i": int64(i), "t0": r.now()}}
				if err := r.k.Submit(ev); err != nil {
					p.failed++
					if errors.Is(err, queue.ErrOverloaded) {
						p.shed++
					}
					if p.firstErr == "" {
						p.firstErr = fmt.Sprintf("submit %d: %v", i, err)
					}
					// The chain will never run; do not wait for it.
					r.chains.Add(1)
					<-r.slots
					continue
				}
				if n%readEvery == 0 && i >= readLookback+readBatch {
					t0 := time.Now()
					for b := uint64(0); b < readBatch; b++ {
						if _, err := r.k.Read(r.st.order(i - readLookback - b)); err != nil {
							if errors.Is(err, lsdb.ErrNotFound) {
								p.notFound++
							} else {
								p.failed++
								if p.firstErr == "" {
									p.firstErr = fmt.Sprintf("read: %v", err)
								}
							}
						}
					}
					p.reads = append(p.reads, int64(time.Since(t0))/readBatch)
				}
			}
		}(&parts[c])
	}
	wg.Wait()
	out.to = r.cursor.Load()
	for _, p := range parts {
		out.failed += p.failed
		out.shed += p.shed
		out.notFound += p.notFound
		out.reads = append(out.reads, p.reads...)
		if p.peak > out.peakDepth {
			out.peakDepth = p.peak
		}
		if out.firstErr == "" {
			out.firstErr = p.firstErr
		}
	}
	want := doneBefore + int64(out.to-out.from)
	waitUntil := time.Now().Add(60 * time.Second)
	for r.chains.Load() < want {
		if time.Now().After(waitUntil) {
			return out, fmt.Errorf("only %d of %d chains finished 60s after the last submit", r.chains.Load()-doneBefore, want-doneBefore)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return out, nil
}

// settle waits until the engines have counted every step of the finished
// chains (the last handler returns just before its step is committed and
// counted).
func (r *eventRun) settle(wantSteps uint64) {
	deadline := time.Now().Add(10 * time.Second)
	for r.k.ProcessStats().StepsExecuted < wantSteps && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// verify checks the step counts, every item's stock and a sample of order
// states against what the stream says must have happened.
func (r *eventRun) verify(total uint64, failedSubmits int, items int, res *result) {
	ps := r.k.ProcessStats()
	res.attempted++
	if want := 3 * (total - uint64(failedSubmits)); ps.StepsExecuted != want || ps.StepsFailed != 0 {
		res.fail(1, "process steps: want %d executed and 0 failed, got %d and %d", want, ps.StepsExecuted, ps.StepsFailed)
	}
	if failedSubmits > 0 {
		return // which chains ran is no longer a function of the stream
	}
	reserved := make([]int64, items)
	for i := uint64(0); i < total; i++ {
		reserved[r.st.item(i)]++
	}
	for n := 0; n < items; n++ {
		res.attempted++
		st, err := r.k.Read(itemKey(n))
		if err != nil {
			res.fail(1, "read %s: %v", itemKey(n), err)
			continue
		}
		if got, want := st.Int("onhand"), int64(initialOnhand)-reserved[n]; got != want {
			res.fail(1, "%s onhand: want %d, got %d", itemKey(n), want, got)
		}
	}
	for i := uint64(0); i < total && i < r.st.orders; i += 64 {
		res.attempted++
		st, err := r.k.Read(r.st.order(i))
		if err != nil {
			res.fail(1, "read %s: %v", r.st.order(i), err)
		} else if got := st.StringField("status"); got != "SHIPMENT-PLANNED" {
			res.fail(1, "%s status: want SHIPMENT-PLANNED, got %q", r.st.order(i), got)
		}
	}
}

// eventPhase is what one timed phase on a warmed kernel observed.
type eventPhase struct {
	run     *eventRun
	prod    produced
	chains  int
	elapsed time.Duration
	cpu     time.Duration
}

// setUpEventRun is one set-up: a started kernel with the process defined,
// the items stocked and the warm-up chains drained.
func setUpEventRun(e *env, st *eventStream, items int, rec *recorder) (*eventRun, error) {
	r, err := newEventRun(st, items, rec)
	if err != nil {
		return nil, err
	}
	if _, err := r.produce(scaled(warmupEvents, e.scale), time.Time{}); err != nil {
		r.k.Close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return r, nil
}

func runEventPhase(e *env, st *eventStream, items int, seconds float64, rec *recorder) (*eventPhase, error) {
	r, err := setUpEventRun(e, st, items, rec)
	if err != nil {
		return nil, err
	}
	return r.timed(seconds)
}

// timed runs the timed phase on a warmed kernel.
func (r *eventRun) timed(seconds float64) (*eventPhase, error) {
	r.apply.v, r.wait.v = nil, nil
	cpu0 := selfCPU()
	prod, err := r.produce(0, time.Now().Add(time.Duration(seconds*float64(time.Second))))
	if err != nil {
		r.k.Close()
		return nil, err
	}
	ph := &eventPhase{run: r, prod: prod, chains: int(prod.to-prod.from) - prod.failed}
	ph.elapsed = time.Duration(r.lastNS.Load() - prod.start)
	ph.cpu = selfCPU() - cpu0
	return ph, nil
}

func runKernelEvents(e *env) (*result, error) {
	items := int(scaled(eventItems, e.scale))
	st := newEventStream(e.seed, scaled(eventOrders, e.scale), uint64(items))
	out := newResult()

	if !e.trace {
		var r *eventRun
		var setups []float64
		for n := 0; n < setupRepeats; n++ {
			if r != nil {
				r.k.Close()
			}
			t0 := time.Now()
			var err error
			if r, err = setUpEventRun(e, st, items, nil); err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		ph, err := r.timed(e.seconds)
		if err != nil {
			return nil, err
		}
		defer r.k.Close()
		if ph.chains <= 0 {
			return nil, fmt.Errorf("no chain completed: %s", ph.prod.firstErr)
		}
		r.settle(3 * ph.prod.to)
		out.ops = ph.chains
		out.attempted = int(ph.prod.to - ph.prod.from)
		out.fail(ph.prod.failed, "%s", ph.prod.firstErr)
		r.verify(ph.prod.to, ph.prod.failed, items, out)
		apply, reads := r.apply.sorted(), sortedCopy(ph.prod.reads)
		out.set("throughput_ops_s", float64(ph.chains)/ph.elapsed.Seconds(), ph.chains)
		out.set("submit_p50_us", us(percentile(apply, 0.50)), len(apply))
		out.set("read_p50_us", us(percentile(reads, 0.50)), len(reads))
		out.set("setup_s", median(setups), len(setups))
		return out, nil
	}

	// Traced run: the same shape twice, tracing off then on, so the ratio of
	// the two throughputs is the tracing overhead.
	plain, err := runEventPhase(e, st, items, e.seconds/2, nil)
	if err != nil {
		return nil, err
	}
	plain.run.k.Close()
	plain.run = nil
	runtime.GC() // the second phase must not pay for the first one's garbage
	rec := newRecorder()
	tr, err := runEventPhase(e, st, items, e.seconds/2, rec)
	if err != nil {
		return nil, err
	}
	r := tr.run
	defer r.k.Close()
	if plain.chains <= 0 || tr.chains <= 0 {
		return nil, fmt.Errorf("no chain completed: %s%s", plain.prod.firstErr, tr.prod.firstErr)
	}
	r.settle(3 * tr.prod.to)
	out.ops = tr.chains
	out.attempted = int(tr.prod.to - tr.prod.from)
	out.fail(tr.prod.failed, "%s", tr.prod.firstErr)
	r.verify(tr.prod.to, tr.prod.failed, items, out)

	ps, ts := r.k.ProcessStats(), r.k.TxnStats()
	apply, wait, reads := r.apply.sorted(), r.wait.sorted(), sortedCopy(tr.prod.reads)
	out.spans = rec.snapshot()
	var stepBusy int64
	for _, name := range []spanName{spStepCreated, spStepReserve, spStepShipment} {
		stepBusy += total(durations(out.spans, name))
	}
	out.set("bench.event_apply_p50_us", us(percentile(apply, 0.50)), len(apply))
	out.set("bench.event_apply_p90_us", us(percentile(apply, 0.90)), len(apply))
	out.set("bench.event_apply_p99_us", us(percentile(apply, 0.99)), len(apply))
	out.set("bench.submit_p90_us", us(percentile(apply, 0.90)), len(apply))
	out.set("bench.submit_p99_us", us(percentile(apply, 0.99)), len(apply))
	out.set("bench.read_p90_us", us(percentile(reads, 0.90)), len(reads))
	out.set("bench.read_p99_us", us(percentile(reads, 0.99)), len(reads))
	out.set("bench.max_us", us(percentile(apply, 1)), len(apply))
	out.set("bench.failed_ratio", float64(out.failed)/float64(out.attempted), out.attempted)
	out.set("bench.not_found_ratio", float64(tr.prod.notFound)/float64(1+len(reads)*readBatch), len(reads)*readBatch)
	rate := func(ph *eventPhase) float64 { return float64(ph.chains) / ph.elapsed.Seconds() }
	out.set("bench.trace_overhead_ratio", rate(plain)/rate(tr), 0)
	out.set("bench.build_s", e.buildS, 0)
	out.set("bench.client_cpu_s", tr.cpu.Seconds(), 0)
	out.set("queue.wait_p50_us", us(percentile(wait, 0.50)), len(wait))
	out.set("queue.wait_p90_us", us(percentile(wait, 0.90)), len(wait))
	out.set("queue.peak_depth", float64(tr.prod.peakDepth), 0)
	out.set("queue.shed", float64(tr.prod.shed), 0)
	out.set("process.steps_executed", float64(ps.StepsExecuted), 0)
	out.set("process.step_busy_s", float64(stepBusy)/1e9, 0)
	out.set("process.lane_steals", float64(ps.LaneSteals), 0)
	out.set("process.keyed_dequeues", float64(ps.KeyedDequeues), 0)
	out.set("process.peak_lane_depth", float64(ps.PeakLaneDepth), 0)
	out.set("process.retries", float64(ps.Retries), 0)
	out.set("process.collapsed", float64(ps.Collapsed), 0)
	out.set("txn.commits", float64(ts.Commits), 0)
	out.set("txn.conflicts", float64(ts.Conflicts), 0)
	out.set("txn.aborts", float64(ts.Aborts), 0)

	// The store and entity rungs replay the chains' writes.
	n := tr.prod.to
	if n > lowerRungsCap/3 {
		n = lowerRungsCap / 3
	}
	ops := make([]kernelOp, 0, 3*n)
	for entry := uint64(0); entry < n; entry++ {
		ops = append(ops,
			kernelOp{key: st.order(entry), ops: []repro.Op{repro.Set("status", "CONFIRMED")}},
			kernelOp{key: itemKey(st.item(entry)), ops: []repro.Op{repro.Delta("onhand", -1)}},
			kernelOp{key: st.order(entry), ops: []repro.Op{repro.Set("status", "SHIPMENT-PLANNED")}})
	}
	lowerRungs(ops, lsdb.Options{}, out)
	return out, nil
}
