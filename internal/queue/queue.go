// Package queue implements the eventing substrate of principles 2.4 and 2.6:
// process steps are connected by events carried on reliable or transactional
// queues. Delivery is at-least-once; consumers achieve effective
// exactly-once by being idempotent (the paper cites Helland's
// at-least-once-plus-idempotence recipe): the process engine's steps are,
// through the store's per-entity txn index, for as long as it retains a
// step's record. Enqueue and dequeue are always local operations — never
// distributed transactions — even when the logical destination is a remote
// serialization unit (principle 2.6).
//
// The queue is a set of per-entity mailboxes. A mailbox holds one entity's
// pending messages in enqueue order (message IDs are assigned at enqueue, so
// ID order is enqueue order) and is in exactly one state: owned by a
// consumer, on the run list (its head is deliverable and nobody owns it), or
// parked until its head's NotBefore passes (retry backoff, EnqueueDelayed).
// An entity has at most one owner at a time and its messages are only ever
// handed out from the head, so an entity's messages are consumed serially,
// in enqueue order, across retries and redeliveries; a delayed head holds
// back the entity's later messages (head-of-line blocking per entity, never
// across entities). Enqueue, claim and ack are O(1) in the backlog.
//
// A consumer takes ownership of a whole entity with Claim or TryClaim, pops
// its messages with Mailbox.Next, settles them in place with Ack or Retry,
// and gives the entity back with Release. This is what the process engine's
// workers do; ownership has no timeout, and an entity released with messages
// unsettled has them redelivered.
package queue

import (
	"container/heap"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/entity"
)

// Common errors.
var (
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("queue: closed")
	// ErrOverloaded is returned by Enqueue when the queue is past its
	// MaxDepth high-water mark: admission control sheds new work at the
	// door instead of queueing without bound. Only fresh enqueues shed —
	// redeliveries of already-accepted messages always re-enter, so
	// admission control never reorders or drops accepted per-entity work.
	ErrOverloaded = errors.New("queue: overloaded, enqueue shed")
)

// Event is the business-level payload of a message: something that happened
// to an entity, described (per principle 2.8) in terms of the operation
// rather than only its consequence.
type Event struct {
	// Name identifies the event kind, e.g. "order.created" or
	// "inventory.reserved".
	Name string
	// Entity is the key of the entity the event concerns.
	Entity entity.Key
	// TxnID identifies the transaction that emitted the event; consumers use
	// it for idempotence.
	TxnID string
	// Data carries event-specific attributes.
	Data map[string]interface{}
	// Stamp is the HLC timestamp of the emitting transaction.
	Stamp clock.Timestamp
	// Deadline, when non-zero, is the latest time executing this event is
	// still useful (it propagates from the submitting surface — an HTTP
	// request's patience — through the kernel into the queue). Work past
	// its deadline is dropped, not executed: the queue discards it when it
	// reaches the head of its mailbox and the process engine re-checks
	// before running a step. Events emitted by a step inherit the parent's
	// deadline.
	Deadline time.Time
}

// Message is one queued delivery of an event. A message a Claim owner was
// handed is the queue's own and is recycled once acknowledged: it is the
// owner's to read until Ack (or until Release, for one it did not settle),
// not after.
type Message struct {
	ID       uint64
	Topic    string
	Event    Event
	Attempts int
	// NotBefore delays delivery until the given time (used for retry backoff
	// and scheduled process steps).
	NotBefore time.Time
	Enqueued  time.Time
	// Minted marks an event whose TxnID the process engine minted for it
	// (process.StepContext.Emit): the id is unique, so the step it triggers
	// needs no idempotence check. Only Post's minted argument sets it; no
	// Event carries it, so nothing posted through Enqueue, Submit or an
	// Outbox is marked.
	Minted bool

	next *Message // the entity's next message, in enqueue order
}

// Options configure a Queue.
type Options struct {
	// MaxAttempts moves a message to the dead-letter list after this many
	// failed deliveries. Zero uses 10.
	MaxAttempts int
	// Clock supplies time; tests and the simulator inject a fake source.
	Clock func() time.Time
	// MaxDepth is the admission-control high-water mark: an Enqueue that
	// would grow the backlog — every accepted message not yet handed to a
	// consumer — past it is shed with ErrOverloaded. Redeliveries (Retry, an
	// unsettled Release) are exempt — accepted work is never dropped
	// by backpressure, so per-entity order is untouched. Zero disables
	// shedding.
	MaxDepth int
	// Entities resolves an entity key to the record its mailbox hangs off,
	// with a hold on it (Entity): a kernel passes its unit store's
	// lsdb.DB.Entity, so every post of one entity reaches the same mailbox
	// however it was resolved. Post calls it, under the queue's lock, for a
	// message posted without its Entity (Enqueue, an Outbox publish); it
	// must not block. Required.
	Entities func(entity.Key) Entity
}

// Slot is an entity as a post resolves it: its key and, while the entity has
// a mailbox — messages pending or an owner — that mailbox. A record that
// keeps an entity embeds a Slot, and so is an Entity: lsdb's entity handle in
// a kernel (docs/CONCURRENCY.md, "Entity handles"). The queue finds the
// mailbox through it, so a post, a claim and a release look no key up. A
// Slot serves one queue; its mailbox is read and written under that queue's
// lock.
type Slot struct {
	key entity.Key
	mb  *Mailbox
}

// MakeSlot returns key's slot, without a mailbox.
func MakeSlot(key entity.Key) Slot { return Slot{key: key} }

// Key returns the slot's entity.
func (s *Slot) Key() entity.Key { return s.key }

func (s *Slot) slot() *Slot { return s }

// Entity is a record embedding a Slot: what Post and Options.Entities
// resolve an entity to, and what a mailbox hangs off between its messages.
// Each resolution carries a hold on the record, which keeps it — and so the
// mailbox — for as long as it is held. Post takes the hold over: the
// entity's mailbox keeps one until it retires, and gives it back then with
// Unhold; a second hold, or one on a refused post, is given back at once. A
// caller that resolves an entity and posts nothing gives its hold back
// itself.
type Entity interface {
	slot() *Slot
	Unhold()
}

// Stats counts scheduling activity on the mailboxes.
type Stats struct {
	// Steals counts claims by a worker other than the entity's previous
	// owner: the entity moved between workers while it still had work.
	Steals uint64
	// Chained counts messages an owner popped beyond the first of its claim
	// — work served without going back through the run list.
	Chained uint64
	// PeakDepth is the most messages any one mailbox has held at once.
	PeakDepth uint64
}

// Queue is a reliable queue of per-entity mailboxes with at-least-once
// delivery, retry backoff and a dead-letter list. All methods are safe for
// concurrent use.
type Queue struct {
	opts Options
	name string

	mu   sync.Mutex
	cond *sync.Cond // signals consumers blocked in Claim
	seq  uint64     // the newest message id
	free []*Mailbox // retired mailboxes, reused for the next entity; at most maxFree
	// freeMsg chains acknowledged messages, zeroed, for the next enqueues; at
	// most maxFree of them.
	freeMsg  *Message
	nFreeMsg int
	// runHead/runTail is the run list: unowned mailboxes whose head is
	// deliverable, in the order they became so.
	runHead, runTail *Mailbox
	parked           parkedHeap // unowned mailboxes whose head is delayed
	pending          int        // accepted messages not currently handed out
	dead             []*Message
	closed           bool

	stats Stats
	// shed counts enqueues refused by the MaxDepth high-water mark;
	// deadlineDropped counts messages discarded because their event deadline
	// passed before delivery.
	shed            uint64
	deadlineDropped uint64
}

// Mailbox is one entity's pending messages plus who may consume them. The
// methods are for the consumer that owns it (Claim, TryClaim) and only until
// it calls Release.
type Mailbox struct {
	q   *Queue
	ent Entity // what the mailbox hangs off, and holds, until it retires: its entity

	// head..tail are the entity's messages in enqueue order; the first out
	// of them, ending at last, are in the owner's hands.
	head, tail, last *Message
	n, out           int

	topic     string   // the owner's topic filter
	lastOwner int      // 1 + worker of the previous Claim; 0 when none
	next      *Mailbox // run-list link
}

// parkedHeap orders parked mailboxes by when their head becomes deliverable
// (container/heap). A parked mailbox is unowned, so its head does not change.
type parkedHeap []*Mailbox

func (h parkedHeap) Len() int            { return len(h) }
func (h parkedHeap) Less(i, j int) bool  { return h[i].head.NotBefore.Before(h[j].head.NotBefore) }
func (h parkedHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *parkedHeap) Push(x interface{}) { *h = append(*h, x.(*Mailbox)) }
func (h *parkedHeap) Pop() interface{} {
	old := *h
	mb := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return mb
}

// New creates a queue with the given name (typically the topic or the
// destination serialization unit).
func New(name string, opts Options) *Queue {
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 10
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	if opts.Entities == nil {
		panic("queue: Options.Entities is required")
	}
	q := &Queue{opts: opts, name: name}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Name returns the queue name.
func (q *Queue) Name() string { return q.name }

// Enqueue adds an event for delivery and returns its message id. Enqueue is
// always a local, non-distributed operation.
func (q *Queue) Enqueue(topic string, ev Event) (uint64, error) {
	return q.Post(topic, &ev, 0, nil, false)
}

// EnqueueDelayed adds an event that becomes deliverable only after delay.
func (q *Queue) EnqueueDelayed(topic string, ev Event, delay time.Duration) (uint64, error) {
	return q.Post(topic, &ev, delay, nil, false)
}

// Post is EnqueueDelayed for a caller that holds the event by reference and,
// when ent is non-nil, has resolved its entity already (Resolve): the
// mailbox is then reached through ent with no key looked up, and Post takes
// over ent's hold, posted or not. The event is copied into the queue; ev is
// not retained. minted sets the message's Minted mark: the process engine
// passes it for an event whose TxnID it minted itself, and nobody else does.
func (q *Queue) Post(topic string, ev *Event, delay time.Duration, ent Entity, minted bool) (uint64, error) {
	now := q.opts.Clock()
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || q.opts.MaxDepth > 0 && q.pending >= q.opts.MaxDepth {
		if ent != nil {
			ent.Unhold()
		}
		if q.closed {
			return 0, ErrClosed
		}
		q.shed++
		return 0, fmt.Errorf("%w: %s at depth %d", ErrOverloaded, q.name, q.pending)
	}
	m := q.freeMsg
	if m != nil {
		q.freeMsg, m.next = m.next, nil
		q.nFreeMsg--
	} else {
		m = new(Message)
	}
	q.seq++
	m.ID, m.Topic, m.Event, m.Minted = q.seq, topic, *ev, minted
	m.NotBefore, m.Enqueued = now.Add(delay), now
	if ent == nil {
		ent = q.opts.Entities(ev.Entity)
	}
	slot := ent.slot()
	// The message carries the record's copy of the key: equal strings, and
	// the ones the next lookup of this entity compares against, so a key a
	// step passes on (the entity its event names) compares by pointer.
	m.Event.Entity = slot.key
	mb := slot.mb
	fresh := mb == nil
	if fresh {
		if n := len(q.free); n > 0 {
			mb, q.free = q.free[n-1], q.free[:n-1]
		} else {
			mb = &Mailbox{q: q}
		}
		mb.ent, slot.mb = ent, mb // the mailbox keeps the hold
	} else if mb.q != q {
		panic(fmt.Sprintf("queue %s: %s posted through another queue's entity record", q.name, ev.Entity))
	} else {
		ent.Unhold() // the mailbox holds the entity already
	}
	if mb.tail == nil { // fresh, or drained by an owner that has not released yet
		mb.head = m
	} else {
		mb.tail.next = m
	}
	mb.tail = m
	mb.n++
	q.pending++
	if d := uint64(mb.n); d > q.stats.PeakDepth {
		q.stats.PeakDepth = d
	}
	if fresh {
		// Every other mailbox is owned, runnable or parked already, and a
		// message behind its head changes none of those.
		q.scheduleLocked(mb, now)
	}
	return m.ID, nil
}

// Resolve returns key's entity, with a hold on it for a Post, by
// Options.Entities: outside the queue's lock.
func (q *Queue) Resolve(key entity.Key) Entity { return q.opts.Entities(key) }

// scheduleLocked makes an unowned, non-empty mailbox claimable: on the run
// list when its head is deliverable, parked until it is otherwise.
func (q *Queue) scheduleLocked(mb *Mailbox, now time.Time) {
	if mb.head.NotBefore.After(now) {
		heap.Push(&q.parked, mb)
	} else {
		mb.next = nil
		if q.runTail == nil {
			q.runHead = mb
		} else {
			q.runTail.next = mb
		}
		q.runTail = mb
	}
	// Blocked consumers either have work now or a new wake time to wait for.
	q.cond.Broadcast()
}

// claimLocked gives the caller ownership of the first runnable mailbox whose
// head is on topic (any when topic is empty), with that head handed out.
// worker identifies a Claim caller for the steal count; TryClaim passes -1.
func (q *Queue) claimLocked(topic string, worker int, now time.Time) (*Mailbox, *Message) {
	for len(q.parked) > 0 && !q.parked[0].head.NotBefore.After(now) {
		q.scheduleLocked(heap.Pop(&q.parked).(*Mailbox), now)
	}
	var prev *Mailbox
	for mb := q.runHead; mb != nil; {
		if topic != "" && mb.head.Topic != topic {
			prev, mb = mb, mb.next
			continue
		}
		next := mb.next
		if prev == nil {
			q.runHead = next
		} else {
			prev.next = next
		}
		if q.runTail == mb {
			q.runTail = prev
		}
		mb.topic = topic
		if m := q.nextLocked(mb, now); m != nil {
			if mb.lastOwner != 0 && worker >= 0 && mb.lastOwner != worker+1 {
				q.stats.Steals++
			}
			mb.lastOwner = worker + 1
			return mb, m
		}
		// Every message up to a delayed or off-topic one was past its
		// deadline: nothing to hand out, so the mailbox goes back.
		q.releaseLocked(mb, now)
		mb = next
	}
	return nil, nil
}

// nextLocked hands the owner the mailbox's next message, or nil when there
// is none, it is not deliverable yet or it is off the owner's topic. A
// message whose event deadline has passed is dropped on the way: the
// submitter has stopped waiting, so executing it would be work nobody
// observes. The drop is terminal — no dead-letter, no redelivery.
func (q *Queue) nextLocked(mb *Mailbox, now time.Time) *Message {
	for {
		m := mb.head
		if mb.last != nil {
			m = mb.last.next
		}
		if m == nil || m.NotBefore.After(now) || (mb.topic != "" && m.Topic != mb.topic) {
			return nil
		}
		if m.Event.Deadline.IsZero() || !now.After(m.Event.Deadline) {
			m.Attempts++
			mb.last = m
			mb.out++
			q.pending--
			return m
		}
		if mb.last == nil {
			mb.head = m.next
		} else {
			mb.last.next = m.next
		}
		if mb.tail == m {
			mb.tail = mb.last
		}
		mb.n--
		q.pending--
		q.deadlineDropped++
		q.retireLocked(m)
	}
}

// retireLocked recycles a message that has left its mailbox for good. Every
// field is cleared, so nothing of this delivery (its event data, its attempt
// count) shows through the next one, and a consumer that kept the pointer
// past Ack reads zeroes.
func (q *Queue) retireLocked(m *Message) {
	*m = Message{}
	if q.nFreeMsg < maxFree {
		m.next, q.freeMsg = q.freeMsg, m
		q.nFreeMsg++
	}
}

// popLocked removes the mailbox's head message.
func (q *Queue) popLocked(mb *Mailbox) *Message {
	m := mb.head
	mb.head = m.next
	if mb.head == nil {
		mb.tail = nil
	}
	m.next = nil
	mb.n--
	return m
}

// ackLocked removes every handed-out message for good.
func (q *Queue) ackLocked(mb *Mailbox) {
	for ; mb.out > 0; mb.out-- {
		q.retireLocked(q.popLocked(mb))
	}
	mb.last = nil
}

// retryLocked returns every handed-out message to the mailbox, in place, and
// delays the head by backoff — the entity's later messages wait behind it.
// A head that has used up MaxAttempts is dead-lettered instead.
func (q *Queue) retryLocked(mb *Mailbox, backoff time.Duration, now time.Time) {
	if mb.out == 0 {
		return
	}
	q.pending += mb.out
	mb.out, mb.last = 0, nil
	if mb.head.Attempts >= q.opts.MaxAttempts {
		q.dead = append(q.dead, q.popLocked(mb))
		q.pending--
		return
	}
	mb.head.NotBefore = now.Add(backoff)
}

// releaseLocked ends an ownership: messages still in the owner's hands are
// redelivered (at-least-once), an empty mailbox is retired, any other goes
// to the back of the run list or parks behind its delayed head.
func (q *Queue) releaseLocked(mb *Mailbox, now time.Time) {
	q.retryLocked(mb, 0, now)
	if mb.head == nil {
		mb.ent.slot().mb = nil
		mb.ent.Unhold()
		if len(q.free) < maxFree {
			*mb = Mailbox{q: q}
			q.free = append(q.free, mb)
		}
		return
	}
	q.scheduleLocked(mb, now)
}

// Claim blocks until an entity with a deliverable message on topic (any when
// topic is empty) is unowned, and returns its mailbox, owned by the caller,
// together with its first message. It returns nil, nil once the queue is
// closed or stop is closed (a stopper must also call Wake). worker is a
// small non-negative id of the calling consumer, used only for Stats.Steals.
func (q *Queue) Claim(topic string, worker int, stop <-chan struct{}) (*Mailbox, *Message) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		select {
		case <-stop:
			return nil, nil
		default:
		}
		if q.closed {
			return nil, nil
		}
		if mb, m := q.claimLocked(topic, worker, q.opts.Clock()); mb != nil {
			return mb, m
		}
		q.waitLocked()
	}
}

// TryClaim is Claim without blocking: nil, nil when nothing is claimable.
func (q *Queue) TryClaim(topic string) (*Mailbox, *Message) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, nil
	}
	return q.claimLocked(topic, -1, q.opts.Clock())
}

// Wake makes every blocked Claim re-check its conditions.
func (q *Queue) Wake() {
	q.mu.Lock()
	q.cond.Broadcast()
	q.mu.Unlock()
}

// maxFree bounds the retired mailboxes, and the retired messages, kept for
// reuse: enough for the entities in flight between workers, not a drained
// backlog's worth.
const maxFree = 1024

// waitLocked blocks until a Broadcast or the moment a parked mailbox comes
// due — that becomes deliverable by time passing, not by a Broadcast.
func (q *Queue) waitLocked() {
	if len(q.parked) == 0 {
		q.cond.Wait()
		return
	}
	// Wake takes the lock, so the timer cannot fire before Wait is waiting.
	waker := time.AfterFunc(q.parked[0].head.NotBefore.Sub(q.opts.Clock()), q.Wake)
	q.cond.Wait()
	waker.Stop()
}

// Key returns the entity the mailbox belongs to.
func (mb *Mailbox) Key() entity.Key { return mb.ent.slot().key }

// Entity returns the record the mailbox hangs off: the entity as its posts
// resolved it.
func (mb *Mailbox) Entity() Entity { return mb.ent }

// Next hands the owner the entity's next message in enqueue order, or nil
// when there is none deliverable. Messages handed out stay the owner's until
// Ack or Retry settles them.
func (mb *Mailbox) Next() *Message {
	q := mb.q
	q.mu.Lock()
	defer q.mu.Unlock()
	if mb.head == nil {
		return nil
	}
	m := q.nextLocked(mb, q.opts.Clock())
	if m != nil {
		q.stats.Chained++
	}
	return m
}

// AckNext is Ack then Next under one hold of the queue's lock. When nothing
// is deliverable it gives the entity back as Release does and returns nil;
// the mailbox must not be used afterwards.
func (mb *Mailbox) AckNext() *Message {
	q := mb.q
	q.mu.Lock()
	defer q.mu.Unlock()
	q.ackLocked(mb)
	var now time.Time
	if mb.head != nil { // as in Release, an empty mailbox needs no clock
		now = q.opts.Clock()
		if m := q.nextLocked(mb, now); m != nil {
			q.stats.Chained++
			return m
		}
	}
	q.releaseLocked(mb, now)
	return nil
}

// Ack acknowledges every message handed out so far, removing them for good.
func (mb *Mailbox) Ack() {
	mb.q.mu.Lock()
	mb.q.ackLocked(mb)
	mb.q.mu.Unlock()
}

// Retry returns every message handed out so far to the mailbox, in place,
// with the first of them delayed by backoff: the entity backs off as a
// whole, so a retry is never overtaken by the entity's later messages.
// After MaxAttempts deliveries that first message is dead-lettered instead.
func (mb *Mailbox) Retry(backoff time.Duration) {
	q := mb.q
	now := q.opts.Clock()
	q.mu.Lock()
	q.retryLocked(mb, backoff, now)
	q.mu.Unlock()
}

// Release gives the entity back: to the back of the run list when it still
// has deliverable work, parked when its head is delayed, retired when empty.
// Messages handed out and not settled are redelivered. The mailbox must not
// be used afterwards.
func (mb *Mailbox) Release() {
	q := mb.q
	q.mu.Lock()
	defer q.mu.Unlock()
	var now time.Time
	if mb.head != nil { // an empty mailbox is retired without a look at the clock
		now = q.opts.Clock()
	}
	q.releaseLocked(mb, now)
}

// Len returns the backlog: accepted messages, deliverable or delayed, that
// are not in a consumer's hands (and not dead-lettered).
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.pending
}

// DeadLetters returns a copy of the dead-letter list.
func (q *Queue) DeadLetters() []Message {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]Message, len(q.dead))
	for i, m := range q.dead {
		out[i] = *m
	}
	return out
}

// Stats returns the scheduling counters.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.stats
}

// Shed returns the number of enqueues refused by the MaxDepth high-water
// mark (admission control).
func (q *Queue) Shed() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.shed
}

// DeadlineDropped returns the number of pending messages discarded because
// their event deadline passed before delivery.
func (q *Queue) DeadlineDropped() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.deadlineDropped
}

// Close shuts the queue; blocked Claim calls return nil.
func (q *Queue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

// Outbox is the transactional half of the eventing model: events staged
// during a transaction are published to the queue only if the transaction
// commits, and discarded if it rolls back. This is how "a committed
// transaction may enqueue events that result in additional process steps"
// (principle 2.4) without a distributed commit.
type Outbox struct {
	mu     sync.Mutex
	staged []staged
}

type staged struct {
	topic string
	ev    Event
	delay time.Duration
}

// NewOutbox returns an empty outbox.
func NewOutbox() *Outbox { return &Outbox{} }

// Stage records an event to publish if the owning transaction commits.
func (o *Outbox) Stage(topic string, ev Event) { o.StageDelayed(topic, ev, 0) }

// StageDelayed records a delayed event.
func (o *Outbox) StageDelayed(topic string, ev Event, delay time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.staged = append(o.staged, staged{topic: topic, ev: ev, delay: delay})
}

// Len returns the number of staged events.
func (o *Outbox) Len() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.staged)
}

// Publish flushes all staged events to the queue (transaction committed) and
// returns the assigned message ids.
func (o *Outbox) Publish(q *Queue) ([]uint64, error) {
	o.mu.Lock()
	staged := o.staged
	o.staged = nil
	o.mu.Unlock()
	ids := make([]uint64, 0, len(staged))
	for i := range staged {
		s := &staged[i]
		id, err := q.Post(s.topic, &s.ev, s.delay, nil, false)
		if err != nil {
			return ids, err
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// Discard drops all staged events (transaction rolled back) and returns how
// many were dropped.
func (o *Outbox) Discard() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := len(o.staged)
	o.staged = nil
	return n
}
