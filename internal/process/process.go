// Package process implements the process-step engine of principles 2.4 and
// 2.6 (SOUPS): a business process is a series of steps connected by events;
// each step contains at most one transaction, which updates exactly one
// entity and may enqueue further events. The engine schedules steps from
// reliable queues, retries failed steps with idempotent re-delivery,
// supports non-transactional audit writes and post-rollback compensation
// actions, and implements the vertical step-collapsing optimisation
// sketched in section 3.1.
//
// Scheduling is a pool of workers that claim whole entities straight from
// the queue's per-entity mailboxes (pool.go), never individual messages: a
// worker owns an entity while it runs that entity's steps in enqueue order,
// then gives it back. Steps for different entities therefore run
// concurrently — the parallelism the paper's serialization units promise
// (2.5/2.6) — while every entity's steps, including retries, backoff
// redeliveries and same-entity vertically collapsed children, execute
// serially in enqueue order. That ordering is what lets idempotent
// consumers treat at-least-once delivery as effective exactly-once (the
// Helland recipe the paper cites in 2.4). The idempotence is the log's: a
// step of an event with a TxnID commits under an id its entity's record
// keeps, and is skipped while that record is retained (executeStep). The
// contract is written out in docs/CONCURRENCY.md and pinned by the ordering
// stress suite in order_test.go.
package process

import (
	"errors"
	"fmt"
	"maps"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/entity"
	"repro/internal/lsdb"
	"repro/internal/queue"
	"repro/internal/txn"
)

// Common errors.
var (
	// ErrUnknownStep is returned when an event names a step no definition
	// handles.
	ErrUnknownStep = errors.New("process: no step handles event")
	// ErrDuplicateStep is returned when two definitions claim the same event.
	ErrDuplicateStep = errors.New("process: step already registered for event")
	// ErrStopped is returned by Submit after the engine stopped.
	ErrStopped = errors.New("process: engine stopped")
)

// StepContext is what a step handler works with: the triggering event, a
// transaction scoped to this step, and helpers for emitting follow-up events
// and auditing. A StepContext and its Txn are the handler's only until it
// returns: the worker runs its next step in the same two values.
type StepContext struct {
	// Event is the event that triggered the step.
	Event queue.Event
	// Txn is the single transaction of this step (principle 2.4); the engine
	// commits it when the handler returns nil and aborts it otherwise.
	Txn *txn.Txn
	// Attempt is the delivery attempt number (1 for the first try).
	Attempt int

	engine  *Engine
	emitted []queue.Event
	// minted has bit i set when Emit minted emitted[i]'s TxnID. Such an
	// event skips the idempotence check (executeStep). There is no bit past
	// the 64th (a shift that wide is 0): such an event is checked like any
	// other, which is never wrong, only slower.
	minted uint64
}

// Emit schedules a follow-up event. The event is only delivered if this
// step's transaction commits; the engine either enqueues it or — when
// vertical collapsing is enabled and the handler is local — executes the next
// step inline.
func (c *StepContext) Emit(ev queue.Event) {
	c.emitted = append(c.emitted, ev)
	next := &c.emitted[len(c.emitted)-1] // completed in place: one copy of ev, not two
	if i := len(c.emitted) - 1; next.TxnID == "" {
		next.TxnID = c.Txn.ID() + "/" + next.Name + "#" + strconv.Itoa(i)
		c.minted |= 1 << i
	}
	if next.Deadline.IsZero() {
		// Follow-up steps inherit the triggering request's patience: if the
		// submitter stops waiting, the whole chain becomes droppable.
		next.Deadline = c.Event.Deadline
	}
}

// Audit writes a non-transactional audit line: it is retained even when the
// step's transaction rolls back ("there may be non-transactional writes,
// e.g., for auditing purposes, which should not be rolled back", 2.4).
func (c *StepContext) Audit(format string, args ...interface{}) {
	c.engine.audit(fmt.Sprintf(format, args...))
}

// stepFrame is the scaffolding of one step execution — its context and its
// transaction — as one reusable value.
type stepFrame struct {
	ctx StepContext
	txn txn.Txn
}

// begin readies the frame for a step triggered by ev, delivered to the
// entity ent (nil when not resolved), whose transaction runs under id ("" for
// a fresh one). Everything the previous step left in it goes first: a
// handler that kept hold of what it was passed finds none of its own step's
// events or writes in the next one's. Steps run solipsistic transactions
// (principle 2.10).
func (f *stepFrame) begin(e *Engine, ev *queue.Event, ent queue.Entity, id string, attempt int) *StepContext {
	clear(f.ctx.emitted) // the events may pin their Data maps
	f.ctx = StepContext{Event: *ev, Txn: &f.txn, Attempt: attempt, engine: e, emitted: f.ctx.emitted[:0]}
	e.mgr.BeginIn(&f.txn, id)
	f.txn.Focus(ent)
	return &f.ctx
}

// stepFrames is one worker's frames, by vertical-collapse nesting level. A
// worker runs one step at a time, so level 0 serves every step it claims;
// a collapsed child runs while its parent's emitted events are still being
// dispatched, so it takes the next level.
type stepFrames []*stepFrame

func (fs *stepFrames) at(level int) *stepFrame {
	for len(*fs) <= level {
		*fs = append(*fs, new(stepFrame))
	}
	return (*fs)[level]
}

// Handler executes one process step.
type Handler func(*StepContext) error

// Definition declares a business process: which step runs for which event,
// and what to do when a step ultimately fails.
type Definition struct {
	Name  string
	steps map[string]Handler
	comp  map[string]func(queue.Event, int, error)
}

// NewDefinition creates an empty process definition.
func NewDefinition(name string) *Definition {
	return &Definition{Name: name, steps: map[string]Handler{}, comp: map[string]func(queue.Event, int, error){}}
}

// Step registers the handler for an event name and returns the definition
// for chaining.
func (d *Definition) Step(eventName string, h Handler) *Definition {
	d.steps[eventName] = h
	return d
}

// OnFailure registers the compensation handler invoked when the step for
// eventName exhausts its retries: infrastructure-generated,
// non-transactional work (post-rollback actions, principle 2.4).
func (d *Definition) OnFailure(eventName string, h func(ev queue.Event, attempts int, lastErr error)) *Definition {
	d.comp[eventName] = h
	return d
}

// Events returns the event names this definition handles, sorted.
func (d *Definition) Events() []string {
	out := make([]string, 0, len(d.steps))
	for e := range d.steps {
		out = append(out, e)
	}
	sort.Strings(out)
	return out
}

// Options configure an Engine.
type Options struct {
	// Workers is the size of the worker pool Start launches (default 1;
	// experiment E19 sweeps this for the parallelism claims of 2.5/2.6).
	// Workers claim whole entities, so any setting preserves per-entity
	// ordering; more workers only add cross-entity concurrency.
	Workers int
	// MaxAttempts is how many times a step is retried before compensation
	// (default 5).
	MaxAttempts int
	// RetryBackoff delays redelivery of a failed step (default 1ms).
	RetryBackoff time.Duration
	// CollapseVertical executes events emitted by a step inline, in the same
	// worker, up to CollapseDepth levels, instead of going through the queue
	// (the "collapse steps vertically" optimisation of section 3.1). Each
	// collapsed step still runs its own transaction.
	CollapseVertical bool
	// CollapseDepth bounds vertical collapsing (default 8).
	CollapseDepth int
	// Topic is the queue topic the engine consumes (default "steps").
	Topic string
	// Route selects the queue an event for an entity is delivered to, with
	// the entity resolved in that queue's unit and held for the post
	// (queue.Entity); a nil queue, or a nil Route, keeps the event on this
	// engine's own queue. The kernel uses it to ship events to the
	// serialization unit owning the event's entity, hashing the key once for
	// both; enqueue remains a local operation on that queue (principle 2.6).
	Route func(entity.Key) (*queue.Queue, queue.Entity)
}

// Stats counts engine activity.
type Stats struct {
	StepsExecuted  uint64
	StepsFailed    uint64
	Retries        uint64
	Compensations  uint64
	Collapsed      uint64
	EventsEmitted  uint64
	AuditLines     uint64
	UnknownEvents  uint64
	EnqueuedEvents uint64
	// LaneSteals counts claims of an entity by a worker other than its
	// previous owner — the entity moved between workers while it still had
	// work, which is what keeps all cores busy under skew.
	LaneSteals uint64
	// PeakLaneDepth is the most deliveries any single entity's mailbox has
	// held at once: a high value means one entity dominates the workload and
	// its steps are (correctly) serialising.
	PeakLaneDepth uint64
	// KeyedDequeues counts deliveries an owner popped beyond the first of
	// its claim: a hot entity's work served without going back through the
	// run list.
	KeyedDequeues uint64
	// DeadlineDropped counts deliveries discarded unexecuted because their
	// event deadline had passed by the time a worker reached them.
	DeadlineDropped uint64
}

// counters is Stats as the hot path bumps it.
type counters struct {
	stepsExecuted, stepsFailed, retries, compensations, collapsed atomic.Uint64
	eventsEmitted, auditLines, unknownEvents, enqueuedEvents      atomic.Uint64
	deadlineDropped                                               atomic.Uint64
}

// stepTable is the registered handlers. A published table is never written
// again — Register swaps in a copy — so steps look handlers up lock-free.
type stepTable struct {
	steps map[string]Handler
	comps map[string]func(queue.Event, int, error)
}

// Engine schedules process steps from a queue against one serialization
// unit's transaction manager. Start launches the worker pool; Drain executes
// synchronously on the calling goroutine. Both claim whole entities from the
// queue, so both preserve per-entity enqueue order.
type Engine struct {
	opts Options
	mgr  *txn.Manager
	q    *queue.Queue

	table atomic.Pointer[stepTable]
	stats counters
	// stopCh is closed by Stop; workers see it between deliveries.
	stopCh chan struct{}

	mu       sync.Mutex // guards Register, Start/Stop and auditLog
	started  bool
	workers  sync.WaitGroup
	auditLog []string
}

// NewEngine creates an engine executing steps against mgr, consuming from q.
func NewEngine(mgr *txn.Manager, q *queue.Queue, opts Options) *Engine {
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 5
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = time.Millisecond
	}
	if opts.CollapseDepth <= 0 {
		opts.CollapseDepth = 8
	}
	if opts.Topic == "" {
		opts.Topic = "steps"
	}
	e := &Engine{
		opts:   opts,
		mgr:    mgr,
		q:      q,
		stopCh: make(chan struct{}),
	}
	e.table.Store(&stepTable{steps: map[string]Handler{}, comps: map[string]func(queue.Event, int, error){}})
	return e
}

// Register adds every step of the definition to the engine.
func (e *Engine) Register(def *Definition) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	old := e.table.Load()
	for ev := range def.steps {
		if _, exists := old.steps[ev]; exists {
			return fmt.Errorf("%w: %s", ErrDuplicateStep, ev)
		}
	}
	next := &stepTable{steps: maps.Clone(old.steps), comps: maps.Clone(old.comps)}
	maps.Copy(next.steps, def.steps)
	maps.Copy(next.comps, def.comp)
	e.table.Store(next)
	return nil
}

// stopping reports whether Stop has been called.
func (e *Engine) stopping() bool {
	select {
	case <-e.stopCh:
		return true
	default:
		return false
	}
}

// Submit enqueues an event that will trigger a process step on the engine's
// own queue. ent, when non-nil, is the event's entity resolved on that queue
// already (queue.Queue.Resolve): its hold goes with the event, posted or
// not. ev is not retained.
func (e *Engine) Submit(ev *queue.Event, ent queue.Entity) error {
	if e.stopping() {
		if ent != nil {
			ent.Unhold()
		}
		return ErrStopped
	}
	return e.post(e.q, ev, ent, false)
}

// post enqueues ev on target, to ent, and counts it; minted marks an event
// whose TxnID Emit minted (queue.Message.Minted).
func (e *Engine) post(target *queue.Queue, ev *queue.Event, ent queue.Entity, minted bool) error {
	_, err := target.Post(e.opts.Topic, ev, 0, ent, minted)
	if err == nil {
		e.stats.enqueuedEvents.Add(1)
	}
	return err
}

// Start launches Options.Workers workers, each claiming whole entities from
// the queue. It is a no-op if the pool is already running or the engine
// stopped.
func (e *Engine) Start() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.started || e.stopping() {
		return
	}
	e.started = true
	for w := 0; w < e.opts.Workers; w++ {
		e.workers.Add(1)
		go e.work(w)
	}
}

// Stop terminates the pool after in-flight steps finish. Events not yet
// executed stay in the queue, in order; the engine is terminal after Stop.
// It is safe to call more than once.
func (e *Engine) Stop() {
	e.mu.Lock()
	if !e.stopping() {
		close(e.stopCh)
	}
	e.mu.Unlock()
	e.q.Wake()
	e.workers.Wait()
}

// Drain processes queued events synchronously on the calling goroutine until
// nothing is deliverable, and returns how many deliveries it handled. It is
// what tests and single-threaded benchmarks use instead of Start/Stop. An
// entity whose head delivery is backing off is held back entirely rather
// than having its later steps run first.
func (e *Engine) Drain() int {
	var frames stepFrames
	n := 0
	for {
		mb, m := e.q.TryClaim(e.opts.Topic)
		if mb == nil {
			return n
		}
		n += e.drain(mb, m, nil, &frames)
	}
}

// deliver executes the step for one delivery and reports whether it is
// settled — executed, skipped as a duplicate, unknown, past its deadline, or
// out of attempts and handed to its compensation handler — or must stay at
// the head of its entity's mailbox and be retried after a backoff.
func (e *Engine) deliver(m *queue.Message, ent queue.Entity, laneKey *entity.Key, frames *stepFrames) bool {
	if e.pastDeadline(&m.Event) {
		return true
	}
	err := e.executeStep(&m.Event, m.Minted, ent, m.Attempts, e.opts.CollapseDepth, laneKey, frames)
	switch {
	case err == nil:
		return true
	case errors.Is(err, ErrUnknownStep):
		// Nothing will ever handle it.
		e.stats.unknownEvents.Add(1)
		return true
	}
	e.stats.retries.Add(1)
	if m.Attempts < e.opts.MaxAttempts {
		return false
	}
	if comp := e.table.Load().comps[m.Event.Name]; comp != nil {
		comp(m.Event, m.Attempts, err)
		e.stats.compensations.Add(1)
	}
	return true
}

// pastDeadline reports (and counts) a delivery whose event deadline passed
// before execution. The queue drops expired work by its own clock when it
// hands a message out; the engine re-checks by the wall clock immediately
// before running the step. The drop is terminal.
func (e *Engine) pastDeadline(ev *queue.Event) bool {
	if ev.Deadline.IsZero() || !time.Now().After(ev.Deadline) {
		return false
	}
	e.stats.deadlineDropped.Add(1)
	return true
}

// executeStep runs the handler for one event inside its own transaction. If
// vertical collapsing is enabled, events emitted by the step whose handlers
// are known locally are executed inline (depth-limited); everything else
// goes through the queue. laneKey, when non-nil, is the entity this
// execution is serialised under: inline collapsing is then restricted to
// children of that same entity, because running another entity's step here
// would bypass that entity's ownership and break its serial order. ev is
// only read, and not after the step's frame has taken its copy; minted is
// its mark (queue.Message.Minted); ent is its entity as resolved (or nil);
// frames supplies that frame, one per nesting level.
//
// Exactly-once is the log's (docs/CONCURRENCY.md). A boundary event — one
// with a TxnID that Emit did not mint: submitted, enqueued, redelivered,
// published by an outbox, or emitted with an id its handler chose — is one a
// duplicate of which can arrive. Its step runs its transaction under the id
// "<event name>@<TxnID>", and before the handler runs, the entity's
// exactly-once index (lsdb.DB.Applied) says whether that id is applied
// already. If it is, the delivery is settled whole: no handler runs, nothing
// is emitted, nothing is counted. So is one whose commit meets the id on
// another entity (lsdb.ErrDuplicateTxn), its emits dropped. An event Emit
// minted an id for is not checked, and its step runs under a fresh id,
// because no duplicate of it can arrive: the parent wrote its record under
// its own id, so a duplicate of the parent is refused before it emits;
// dispatch posts or collapses each emitted event once; and deliver settles a
// delivery exactly when its step committed — a commit sink's failure after
// the records were installed (lsdb.ErrCommittedLocally) counts as committed.
// A boundary step that wrote nothing left no record to refuse its duplicate
// with, so its emitted events go out unmarked and are checked where they
// write. A copy of a minted event that re-enters another way (a handler
// emitting ctx.Event again, TxnID and all) is not recognised.
func (e *Engine) executeStep(ev *queue.Event, minted bool, ent queue.Entity, attempt, depth int, laneKey *entity.Key, frames *stepFrames) error {
	h, ok := e.table.Load().steps[ev.Name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownStep, ev.Name)
	}
	var id string
	if !minted && ev.TxnID != "" {
		id = ev.Name + "@" + ev.TxnID
		if e.applied(ent, ev.Entity, id) {
			return nil
		}
	}
	f := frames.at(e.opts.CollapseDepth - depth)
	ctx := f.begin(e, ev, ent, id, attempt)
	if err := h(ctx); err != nil {
		f.txn.Abort()
		e.stats.stepsFailed.Add(1)
		return err
	}
	switch err := f.txn.CommitDiscard(nil); {
	case errors.Is(err, lsdb.ErrDuplicateTxn):
		return nil
	case err != nil && !errors.Is(err, lsdb.ErrCommittedLocally):
		e.stats.stepsFailed.Add(1)
		return err
	}
	e.stats.stepsExecuted.Add(1)
	e.stats.eventsEmitted.Add(uint64(len(ctx.emitted)))
	marked := ctx.minted
	if id != "" && !f.txn.Wrote() {
		marked = 0
	}
	e.dispatch(ctx.emitted, marked, depth, laneKey, frames)
	return nil
}

// applied reports whether the transaction id wrote a retained record of key,
// asked through ent when it is key's handle in this engine's store.
func (e *Engine) applied(ent queue.Entity, key entity.Key, id string) bool {
	db := e.mgr.DB()
	h, _ := ent.(*lsdb.Handle)
	if h != nil && !db.Owns(h) {
		h = nil
	}
	return db.Applied(h, key, id)
}

// dispatch delivers events emitted by a committed step, each exactly once:
// inline when vertical collapsing applies, otherwise through the destination
// queue. Bit i of minted marks events[i] as Emit minted its id.
func (e *Engine) dispatch(events []queue.Event, minted uint64, depth int, laneKey *entity.Key, frames *stepFrames) {
	for i := range events {
		next := &events[i]
		mint := minted&(1<<i) != 0
		target, ent := e.route(next.Entity)
		// Inline collapsing only applies when the next step runs on this very
		// unit; cross-unit events always travel through their owning queue.
		// Under the pool it is additionally restricted to the owned entity:
		// a collapsed child runs inside its parent's serialisation slot, and
		// only the entity's owner may do that for this entity.
		if e.opts.CollapseVertical && depth > 0 && target == e.q && (laneKey == nil || *laneKey == next.Entity) {
			if _, local := e.table.Load().steps[next.Name]; local {
				e.stats.collapsed.Add(1)
				if err := e.executeStep(next, mint, ent, 1, depth-1, laneKey, frames); err == nil {
					ent.Unhold()
					continue
				}
				// Inline execution failed: fall back to the queue so the
				// normal retry machinery applies.
			}
		}
		_ = e.post(target, next, ent, mint)
	}
}

// route returns the queue an event for key goes to and key's entity there,
// held for a post and resolved before the queue's lock is taken
// (Options.Route, queue.Queue.Resolve).
func (e *Engine) route(key entity.Key) (*queue.Queue, queue.Entity) {
	if e.opts.Route != nil {
		if target, ent := e.opts.Route(key); target != nil {
			return target, ent
		}
	}
	return e.q, e.q.Resolve(key)
}

// Stats returns a copy of the counters, including the scheduling counters of
// the queue's mailboxes.
func (e *Engine) Stats() Stats {
	qs := e.q.Stats()
	return Stats{
		StepsExecuted:   e.stats.stepsExecuted.Load(),
		StepsFailed:     e.stats.stepsFailed.Load(),
		Retries:         e.stats.retries.Load(),
		Compensations:   e.stats.compensations.Load(),
		Collapsed:       e.stats.collapsed.Load(),
		EventsEmitted:   e.stats.eventsEmitted.Load(),
		AuditLines:      e.stats.auditLines.Load(),
		UnknownEvents:   e.stats.unknownEvents.Load(),
		EnqueuedEvents:  e.stats.enqueuedEvents.Load(),
		LaneSteals:      qs.Steals,
		PeakLaneDepth:   qs.PeakDepth,
		KeyedDequeues:   qs.Chained,
		DeadlineDropped: e.stats.deadlineDropped.Load(),
	}
}

// audited returns a copy of the non-transactional audit lines.
func (e *Engine) audited() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]string(nil), e.auditLog...)
}

func (e *Engine) audit(line string) {
	e.mu.Lock()
	e.auditLog = append(e.auditLog, line)
	e.mu.Unlock()
	e.stats.auditLines.Add(1)
}

// QueueDepth returns the number of events waiting in the engine's queue.
func (e *Engine) QueueDepth() int { return e.q.Len() }
