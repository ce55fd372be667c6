package queue

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/entity"
)

// slots is a resolver for a test queue (Options.Entities): a record per key,
// kept for the queue's life, so holds need no count.
type slots struct {
	mu sync.Mutex
	m  map[entity.Key]*testEntity
}

type testEntity struct{ Slot }

func (*testEntity) Unhold() {}

func (s *slots) resolve(key entity.Key) Entity {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.m[key]
	if e == nil {
		e = &testEntity{MakeSlot(key)}
		s.m[key] = e
	}
	return e
}

// newQueue is New with a test resolver.
func newQueue(name string, opts Options) *Queue {
	opts.Entities = (&slots{m: map[entity.Key]*testEntity{}}).resolve
	return New(name, opts)
}

func ev(name, key string) Event {
	return Event{Name: name, Entity: entity.Key{Type: "Order", ID: key}, TxnID: "txn-" + key}
}

// settle acknowledges a claimed mailbox's messages and gives the entity back,
// as a consumer that executed them does.
func settle(mb *Mailbox) {
	mb.Ack()
	mb.Release()
}

func TestEnqueueDequeueAckFIFO(t *testing.T) {
	q := newQueue("unit-1", Options{})
	for i := 0; i < 3; i++ {
		if _, err := q.Enqueue("orders", ev("order.created", fmt.Sprintf("O%d", i))); err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
	}
	if q.Len() != 3 {
		t.Fatalf("Len = %d", q.Len())
	}
	for i := 0; i < 3; i++ {
		mb, m := q.TryClaim("orders")
		if mb == nil {
			t.Fatalf("TryClaim %d: nothing claimable", i)
		}
		want := fmt.Sprintf("O%d", i)
		if m.Event.Entity.ID != want {
			t.Fatalf("FIFO violated: got %s, want %s", m.Event.Entity.ID, want)
		}
		settle(mb)
	}
	if mb, m := q.TryClaim("orders"); mb != nil {
		t.Fatalf("drained queue handed out %v", m)
	}
	if q.Len() != 0 || q.nFreeMsg != 3 {
		t.Fatalf("Len = %d, recycled %d; want 0, 3 (every message acknowledged)", q.Len(), q.nFreeMsg)
	}
}

func TestDequeueTopicFilter(t *testing.T) {
	q := newQueue("unit-1", Options{})
	q.Enqueue("orders", ev("order.created", "O1"))
	q.Enqueue("inventory", ev("inventory.reserved", "I1"))
	mb, m := q.TryClaim("inventory")
	if mb == nil || m.Event.Name != "inventory.reserved" {
		t.Fatalf("topic filter broken: %v", m)
	}
	settle(mb)
	// Empty topic matches anything.
	if mb, m = q.TryClaim(""); mb == nil || m.Event.Name != "order.created" {
		t.Fatalf("wildcard claim broken: %v", m)
	}
}

func TestDeadLetterAfterMaxAttempts(t *testing.T) {
	now := time.Unix(0, 0)
	q := newQueue("unit-1", Options{MaxAttempts: 3, Clock: func() time.Time { return now }})
	q.Enqueue("t", ev("poison", "1"))
	for i := 0; i < 3; i++ {
		mb, _ := q.TryClaim("t")
		if mb == nil {
			t.Fatalf("TryClaim %d: nothing claimable", i)
		}
		mb.Retry(0)
		mb.Release()
	}
	if mb, _ := q.TryClaim("t"); mb != nil {
		t.Fatal("poison message still deliverable")
	}
	dead := q.DeadLetters()
	if len(dead) != 1 || dead[0].Event.Name != "poison" {
		t.Fatalf("dead letters = %+v", dead)
	}
}

func TestDelayedEnqueue(t *testing.T) {
	now := time.Unix(0, 0)
	q := newQueue("unit-1", Options{Clock: func() time.Time { return now }})
	q.EnqueueDelayed("t", ev("e", "1"), 10*time.Second)
	if mb, _ := q.TryClaim("t"); mb != nil {
		t.Fatal("delayed message delivered early")
	}
	now = now.Add(11 * time.Second)
	if mb, _ := q.TryClaim("t"); mb == nil {
		t.Fatal("delayed message not delivered")
	}
}

func TestCloseRejectsEnqueue(t *testing.T) {
	q := newQueue("unit-1", Options{})
	q.Enqueue("t", ev("e", "1"))
	q.Close()
	if _, err := q.Enqueue("t", ev("e", "2")); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if mb, m := q.TryClaim("t"); mb != nil {
		t.Fatalf("closed queue handed out %v", m)
	}
}

func TestOutboxPublishOnCommit(t *testing.T) {
	q := newQueue("unit-1", Options{})
	o := NewOutbox()
	o.Stage("orders", ev("order.created", "O1"))
	o.StageDelayed("orders", ev("order.reminder", "O1"), time.Hour)
	if o.Len() != 2 {
		t.Fatalf("staged = %d", o.Len())
	}
	// Nothing visible before commit.
	if q.Len() != 0 {
		t.Fatal("staged events leaked before commit")
	}
	ids, err := o.Publish(q)
	if err != nil || len(ids) != 2 {
		t.Fatalf("Publish: %v ids=%v", err, ids)
	}
	if q.Len() != 2 {
		t.Fatalf("queue len = %d", q.Len())
	}
	if o.Len() != 0 {
		t.Fatal("outbox not drained by Publish")
	}
}

func TestOutboxDiscardOnRollback(t *testing.T) {
	q := newQueue("unit-1", Options{})
	o := NewOutbox()
	o.Stage("orders", ev("order.created", "O1"))
	if n := o.Discard(); n != 1 {
		t.Fatalf("Discard = %d", n)
	}
	if q.Len() != 0 || o.Len() != 0 {
		t.Fatal("rolled-back events leaked")
	}
}

func TestOutboxPublishToClosedQueue(t *testing.T) {
	q := newQueue("unit-1", Options{})
	q.Close()
	o := NewOutbox()
	o.Stage("t", ev("e", "1"))
	if _, err := o.Publish(q); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

func TestConcurrentProducersConsumers(t *testing.T) {
	q := newQueue("unit-1", Options{})
	const producers, perProducer, consumers = 4, 200, 4
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.Enqueue("t", Event{Name: "e", Entity: entity.Key{Type: "Order", ID: fmt.Sprintf("%d-%d", p, i%7)},
					TxnID: fmt.Sprintf("%d-%d", p, i)})
			}
		}(p)
	}
	var consumed atomic.Int64
	var cwg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < consumers; c++ {
		cwg.Add(1)
		go func(c int) {
			defer cwg.Done()
			for {
				mb, m := q.Claim("t", c, stop)
				if mb == nil {
					return
				}
				for ; m != nil; m = mb.Next() {
					consumed.Add(1)
					mb.Ack()
				}
				mb.Release()
			}
		}(c)
	}
	wg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for consumed.Load() < producers*perProducer && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	q.Close()
	cwg.Wait()
	if consumed.Load() != producers*perProducer {
		t.Fatalf("consumed = %d, want %d", consumed.Load(), producers*perProducer)
	}
}

// Property: for any enqueue count, claiming and acknowledging drains exactly
// that many messages and never invents or loses one (reliable delivery).
func TestReliableDeliveryProperty(t *testing.T) {
	f := func(count uint8) bool {
		q := newQueue("unit", Options{})
		n := int(count % 64)
		for i := 0; i < n; i++ {
			q.Enqueue("t", Event{Entity: entity.Key{Type: "Order", ID: fmt.Sprint(i % 5)}, TxnID: fmt.Sprintf("%d", i)})
		}
		seen := map[string]bool{}
		for {
			mb, m := q.TryClaim("t")
			if mb == nil {
				break
			}
			for ; m != nil; m = mb.Next() {
				if seen[m.Event.TxnID] {
					return false // a duplicate with no redelivery
				}
				seen[m.Event.TxnID] = true
				mb.Ack()
			}
			mb.Release()
		}
		return len(seen) == n && q.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDequeueHoldsEntityBehindDelayedHead(t *testing.T) {
	now := time.Unix(0, 0)
	q := newQueue("unit-1", Options{Clock: func() time.Time { return now }})
	// Entity X's head is delayed (a retry backoff in flight); a later X
	// message and an unrelated Y message are immediately deliverable.
	q.EnqueueDelayed("t", ev("step", "X"), 50*time.Millisecond)
	q.Enqueue("t", ev("step", "X"))
	q.Enqueue("t", ev("step", "Y"))

	// X is held back entirely — its second message may not overtake the
	// delayed head — while Y is served.
	y, m := q.TryClaim("t")
	if y == nil || m.Event.Entity.ID != "Y" {
		t.Fatalf("TryClaim = %v; want Y", m)
	}
	if mb, m := q.TryClaim("t"); mb != nil {
		t.Fatalf("X delivered around its delayed head: %v", m)
	}
	// Once the head becomes deliverable, X's messages come out in enqueue
	// order, one at a time: the second is withheld from other consumers
	// until the first settles.
	now = now.Add(time.Second)
	x, first := q.TryClaim("t")
	if x == nil {
		t.Fatal("X not claimable after its delay")
	}
	firstID := first.ID
	if mb, m := q.TryClaim("t"); mb != nil {
		t.Fatalf("second X message delivered while the first is owned: %v", m)
	}
	settle(x)
	x, second := q.TryClaim("t")
	if x == nil {
		t.Fatal("X not claimable after the first message settled")
	}
	if firstID > second.ID || second.Event.Entity.ID != "X" {
		t.Fatalf("X delivered out of order: %d then %d", firstID, second.ID)
	}
}

func TestMaxDepthShedsFreshEnqueuesTyped(t *testing.T) {
	q := newQueue("unit-1", Options{MaxDepth: 2})
	for i := 0; i < 2; i++ {
		if _, err := q.Enqueue("t", ev("e", fmt.Sprintf("%d", i))); err != nil {
			t.Fatalf("Enqueue %d: %v", i, err)
		}
	}
	if _, err := q.Enqueue("t", ev("e", "over")); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("enqueue past high-water mark: err = %v, want ErrOverloaded", err)
	}
	if q.Shed() != 1 {
		t.Fatalf("Shed = %d, want 1", q.Shed())
	}
	// Draining makes room: the shed is backpressure, not a closed door.
	mb, _ := q.TryClaim("t")
	if mb == nil {
		t.Fatal("nothing claimable")
	}
	settle(mb)
	if _, err := q.Enqueue("t", ev("e", "retry")); err != nil {
		t.Fatalf("enqueue after drain: %v", err)
	}
}

// Redeliveries — retries and unsettled releases — are exempt from the
// high-water mark: admission control sheds only work the queue never
// accepted, so accepted per-entity work is never dropped or reordered by
// overload.
func TestRedeliveryExemptFromMaxDepth(t *testing.T) {
	now := time.Unix(0, 0)
	q := newQueue("unit-1", Options{MaxDepth: 1, Clock: func() time.Time { return now }})
	if _, err := q.Enqueue("t", ev("e", "1")); err != nil {
		t.Fatal(err)
	}
	mb, _ := q.TryClaim("t")
	if mb == nil {
		t.Fatal("nothing claimable")
	}
	// The queue is at capacity again with a second accepted message.
	if _, err := q.Enqueue("t", ev("e", "2")); err != nil {
		t.Fatal(err)
	}
	// A retry of the handed-out message re-enters past the mark without
	// shedding.
	mb.Retry(0)
	mb.Release()
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (redelivery admitted)", q.Len())
	}
	// A fresh enqueue is shed.
	if _, err := q.Enqueue("t", ev("e", "3")); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("fresh enqueue: err = %v, want ErrOverloaded", err)
	}
	// A release with the message unsettled requeues it, exempt too.
	mb, _ = q.TryClaim("t")
	if mb == nil {
		t.Fatal("nothing claimable")
	}
	mb.Release()
	if q.Len() != 2 {
		t.Fatalf("Len = %d after an unsettled release, want 2", q.Len())
	}
	if mb, _ := q.TryClaim("t"); mb == nil {
		t.Fatal("released message did not redeliver into the full queue")
	}
}

// A message whose deadline passed while queued is dropped when it reaches a
// consumer — work nobody is waiting for anymore is not executed.
func TestDeadlineExpiredDroppedAtDequeue(t *testing.T) {
	now := time.Unix(0, 0)
	q := newQueue("unit-1", Options{Clock: func() time.Time { return now }})
	stale := ev("e", "stale")
	stale.Deadline = now.Add(5 * time.Second)
	if _, err := q.Enqueue("t", stale); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Enqueue("t", ev("e", "fresh")); err != nil {
		t.Fatal(err)
	}
	now = now.Add(6 * time.Second)
	mb, m := q.TryClaim("t")
	if mb == nil {
		t.Fatal("nothing claimable")
	}
	if m.Event.Entity.ID != "fresh" {
		t.Fatalf("claimed %s, want the un-deadlined message", m.Event.Entity.ID)
	}
	if q.DeadlineDropped() != 1 {
		t.Fatalf("DeadlineDropped = %d, want 1", q.DeadlineDropped())
	}
	// The drop is terminal: not redelivered, not dead-lettered.
	if len(q.DeadLetters()) != 0 {
		t.Fatalf("deadline drop went to the dead letter queue: %v", q.DeadLetters())
	}
	settle(mb)
	if mb, m := q.TryClaim("t"); mb != nil {
		t.Fatalf("stale message still deliverable: %v", m)
	}
}

// An acknowledged message is recycled for a later enqueue. Every field is
// cleared first, so nothing of the old delivery shows through the new one,
// and what a consumer (wrongly) kept of the old one is never written into.
func TestRecycledMessageCarriesNothingOver(t *testing.T) {
	now := time.Unix(100, 0)
	q := newQueue("unit-1", Options{Clock: func() time.Time { return now }})
	old := Event{Name: "old", Entity: entity.Key{Type: "Order", ID: "X"}, TxnID: "txn-old",
		Data: map[string]interface{}{"secret": 42}, Deadline: now.Add(time.Hour)}
	q.Enqueue("t", old)
	mb, m := q.TryClaim("t")
	mb.Retry(0) // a second attempt, so Attempts has something to leak
	mb.Release()
	mb, m = q.TryClaim("t")
	if m.Attempts != 2 {
		t.Fatalf("Attempts = %d, want 2", m.Attempts)
	}
	keptMsg, keptData := m, m.Event.Data
	mb.Ack()
	mb.Release()
	if keptMsg.ID != 0 || keptMsg.Event.Name != "" || keptMsg.Event.Data != nil || keptMsg.Attempts != 0 {
		t.Fatalf("a message kept past Ack still reads %+v, want zeroes", *keptMsg)
	}

	now = now.Add(time.Minute)
	q.Enqueue("other", Event{Name: "new", Entity: entity.Key{Type: "Order", ID: "Y"}})
	mb, m = q.TryClaim("")
	if m != keptMsg {
		t.Fatal("the acknowledged message was not reused; the test no longer tests recycling")
	}
	want := Message{ID: 2, Topic: "other", Event: Event{Name: "new", Entity: entity.Key{Type: "Order", ID: "Y"}},
		Attempts: 1, NotBefore: now, Enqueued: now}
	if got := *m; got.ID != want.ID || got.Topic != want.Topic || got.Attempts != want.Attempts ||
		!got.NotBefore.Equal(want.NotBefore) || !got.Enqueued.Equal(want.Enqueued) || got.next != nil ||
		got.Event.Name != "new" || got.Event.Entity != want.Event.Entity || got.Event.TxnID != "" ||
		got.Event.Data != nil || !got.Event.Deadline.IsZero() {
		t.Fatalf("recycled message = %+v, want %+v", got, want)
	}
	mb.Ack()
	mb.Release()
	if len(keptData) != 1 || keptData["secret"] != 42 {
		t.Fatalf("the event data a consumer kept was rewritten: %v", keptData)
	}
}

// The free list is bounded: draining a deep backlog keeps at most maxFree
// messages for reuse.
func TestMessageFreeListIsBounded(t *testing.T) {
	q := newQueue("unit-1", Options{})
	const backlog = maxFree + 500
	for i := 0; i < backlog; i++ {
		q.Enqueue("t", ev("e", fmt.Sprintf("O%d", i)))
	}
	acked := 0
	for {
		mb, _ := q.TryClaim("t")
		if mb == nil {
			break
		}
		settle(mb)
		acked++
	}
	if acked != backlog || q.nFreeMsg != maxFree {
		t.Fatalf("acked %d, kept %d for reuse; want %d, %d", acked, q.nFreeMsg, backlog, maxFree)
	}
	n := 0
	for m := q.freeMsg; m != nil; m = m.next {
		n++
	}
	if n != maxFree {
		t.Fatalf("free list holds %d messages, its count says %d", n, maxFree)
	}
}

// --- Mailbox ownership (Claim) ---------------------------------------------

func TestClaimOwnsEntityAndPopsInOrder(t *testing.T) {
	q := newQueue("unit-1", Options{})
	q.Enqueue("t", ev("a", "X"))
	q.Enqueue("t", ev("b", "X"))
	q.Enqueue("t", ev("c", "Y"))

	mb, m := q.TryClaim("t")
	if mb == nil || mb.Key().ID != "X" || m.Event.Name != "a" || m.Attempts != 1 {
		t.Fatalf("TryClaim = %v, %v; want X's first message", mb, m)
	}
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (the handed-out message is not backlog)", q.Len())
	}
	// X is owned: every other consumer is served Y, then nothing.
	if other, m := q.TryClaim("t"); other == nil || m.Event.Entity.ID != "Y" {
		t.Fatalf("TryClaim beside an owner = %v; want Y", m)
	}
	if mb2, _ := q.TryClaim("t"); mb2 != nil {
		t.Fatalf("a second consumer claimed %s while both entities are held", mb2.Key())
	}
	// Work arriving for an owned entity reaches its owner, in order.
	q.Enqueue("t", ev("d", "X"))
	mb.Ack()
	for _, want := range []string{"b", "d"} {
		m := mb.Next()
		if m == nil || m.Event.Name != want {
			t.Fatalf("Next = %v, want %s", m, want)
		}
		mb.Ack()
	}
	if m := mb.Next(); m != nil {
		t.Fatalf("Next on a drained mailbox = %v", m)
	}
	mb.Release()
	if q.nFreeMsg != 3 || q.Len() != 0 {
		t.Fatalf("recycled %d, Len = %d; want 3 acknowledged, 0", q.nFreeMsg, q.Len())
	}
	if s := q.Stats(); s.Chained != 2 || s.PeakDepth != 3 {
		t.Fatalf("Stats = %+v; want 2 messages popped in place, peak depth 3", s)
	}
}

func TestClaimRetryKeepsHeadInPlaceAndParks(t *testing.T) {
	now := time.Unix(0, 0)
	q := newQueue("unit-1", Options{MaxAttempts: 3, Clock: func() time.Time { return now }})
	q.Enqueue("t", ev("first", "X"))
	q.Enqueue("t", ev("second", "X"))

	mb, m := q.TryClaim("t")
	mb.Retry(time.Second)
	if next := mb.Next(); next != nil {
		t.Fatalf("Next after Retry = %v; the entity must wait out the backoff", next)
	}
	mb.Release()
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (retry is exempt from nothing, it never left)", q.Len())
	}
	if mb, _ := q.TryClaim("t"); mb != nil {
		t.Fatal("parked entity claimed before its backoff passed")
	}
	// After the backoff the same message is redelivered first — the entity's
	// later message has not overtaken it — and MaxAttempts dead-letters it.
	for attempt := 2; attempt <= 3; attempt++ {
		now = now.Add(2 * time.Second)
		mb, again := q.TryClaim("t")
		if mb == nil || again.ID != m.ID || again.Attempts != attempt {
			t.Fatalf("attempt %d: claimed %v, want message %d again", attempt, again, m.ID)
		}
		mb.Retry(time.Second)
		mb.Release()
	}
	if dead := q.DeadLetters(); len(dead) != 1 || dead[0].Event.Name != "first" {
		t.Fatalf("dead letters = %+v", dead)
	}
	mb, m = q.TryClaim("t")
	if mb == nil || m.Event.Name != "second" {
		t.Fatalf("after the dead-letter: %v, want the entity's second message", m)
	}
}

func TestReleaseRedeliversUnsettledAndCountsSteals(t *testing.T) {
	q := newQueue("unit-1", Options{})
	q.Enqueue("t", ev("a", "X"))
	q.Enqueue("t", ev("b", "X"))

	mb, m := q.Claim("t", 0, nil)
	mb.Release() // neither acked nor retried: the message must come back
	mb, again := q.Claim("t", 0, nil)
	if again.ID != m.ID || again.Attempts != 2 {
		t.Fatalf("after an unsettled Release: %v, want message %d redelivered", again, m.ID)
	}
	mb.Ack()
	mb.Release()
	if s := q.Stats(); s.Steals != 0 {
		t.Fatalf("Steals = %d after the same worker claimed twice", s.Steals)
	}
	mb, _ = q.Claim("t", 1, nil)
	mb.Ack()
	mb.Release()
	if s := q.Stats(); s.Steals != 1 {
		t.Fatalf("Steals = %d, want 1: the entity moved from worker 0 to worker 1 with work left", s.Steals)
	}
}

func TestClaimBlocksUntilWorkStopOrClose(t *testing.T) {
	q := newQueue("unit-1", Options{})
	type claimed struct {
		mb *Mailbox
		m  *Message
	}
	claim := func(stop <-chan struct{}) <-chan claimed {
		out := make(chan claimed, 1)
		go func() {
			mb, m := q.Claim("t", 0, stop)
			out <- claimed{mb, m}
		}()
		return out
	}
	wait := func(c <-chan claimed, what string) claimed {
		t.Helper()
		select {
		case got := <-c:
			return got
		case <-time.After(5 * time.Second):
			t.Fatalf("Claim did not return after %s", what)
			return claimed{}
		}
	}

	// A delayed message wakes the claimer by time passing, not by a signal.
	c := claim(nil)
	q.EnqueueDelayed("t", ev("late", "X"), 20*time.Millisecond)
	got := wait(c, "the delay elapsed")
	if got.m == nil || got.m.Event.Name != "late" {
		t.Fatalf("claimed %v", got.m)
	}
	got.mb.Ack()
	got.mb.Release()

	stop := make(chan struct{})
	c = claim(stop)
	time.Sleep(10 * time.Millisecond)
	close(stop)
	q.Wake()
	if got := wait(c, "stop"); got.mb != nil {
		t.Fatalf("Claim returned %v after stop", got.m)
	}

	c = claim(nil)
	time.Sleep(10 * time.Millisecond)
	q.Close()
	if got := wait(c, "Close"); got.mb != nil {
		t.Fatalf("Claim returned %v after Close", got.m)
	}
}

// TestMixedConsumersKeepPerEntityOrder is the queue's ordering stress test:
// blocking Claim owners and polling TryClaim owners work one queue together
// while every way a delivery can repeat is exercised — Retry backoffs and
// Releases with executed messages unsettled (the worst case). Each consumer
// is idempotent on TxnID, as the contract requires. Every entity's execution
// order must equal its enqueue order, with every message executed.
func TestMixedConsumersKeepPerEntityOrder(t *testing.T) {
	const (
		producers   = 3
		perProducer = 6 // entities per producer (disjoint, so a producer's order is the entity's enqueue order)
		perEntity   = 40
		owners      = 3
		pollers     = 3
		total       = producers * perProducer * perEntity
	)
	q := newQueue("stress", Options{MaxAttempts: 1 << 20})

	var mu sync.Mutex
	executed := map[string]bool{}
	order := map[entity.Key][]int{}
	done := make(chan struct{})
	execute := func(m *Message) {
		mu.Lock()
		defer mu.Unlock()
		if executed[m.Event.TxnID] {
			return
		}
		executed[m.Event.TxnID] = true
		order[m.Event.Entity] = append(order[m.Event.Entity], m.Event.Data["seq"].(int))
		if len(executed) == total {
			close(done)
		}
	}

	// consume runs one ownership: a random budget of messages, each retried,
	// executed and left unsettled, or executed and acknowledged.
	consume := func(rng *rand.Rand, mb *Mailbox, m *Message) {
		for budget := 1 + rng.Intn(8); m != nil; budget-- {
			switch roll := rng.Intn(100); {
			case roll < 10:
				mb.Retry(time.Duration(rng.Intn(300)) * time.Microsecond)
			case roll < 15:
				execute(m)
				budget = 0 // release with the executed message unsettled
			default:
				execute(m)
				mb.Ack()
			}
			if budget <= 0 {
				break
			}
			m = mb.Next()
		}
		mb.Release()
	}
	stop := make(chan struct{})
	var consumers sync.WaitGroup
	for w := 0; w < owners; w++ {
		consumers.Add(1)
		go func(w int) {
			defer consumers.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			for {
				mb, m := q.Claim("t", w, stop)
				if mb == nil {
					return
				}
				consume(rng, mb, m)
			}
		}(w)
	}
	for c := 0; c < pollers; c++ {
		consumers.Add(1)
		go func(c int) {
			defer consumers.Done()
			rng := rand.New(rand.NewSource(int64(2000 + c)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				mb, m := q.TryClaim("t")
				if mb == nil {
					time.Sleep(100 * time.Microsecond)
					continue
				}
				consume(rng, mb, m)
			}
		}(c)
	}

	var writers sync.WaitGroup
	for p := 0; p < producers; p++ {
		writers.Add(1)
		go func(p int) {
			defer writers.Done()
			for seq := 0; seq < perEntity; seq++ {
				for e := 0; e < perProducer; e++ {
					key := entity.Key{Type: "Order", ID: fmt.Sprintf("P%d-E%d", p, e)}
					_, err := q.Enqueue("t", Event{Name: "step", Entity: key,
						TxnID: fmt.Sprintf("%s#%d", key.ID, seq), Data: map[string]interface{}{"seq": seq}})
					if err != nil {
						t.Errorf("Enqueue: %v", err)
					}
				}
			}
		}(p)
	}
	writers.Wait()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		mu.Lock()
		n := len(executed)
		mu.Unlock()
		t.Fatalf("timed out: %d/%d messages executed, backlog %d", n, total, q.Len())
	}
	close(stop)
	q.Wake()
	consumers.Wait()

	if len(order) != producers*perProducer {
		t.Fatalf("entities observed = %d, want %d", len(order), producers*perProducer)
	}
	for key, got := range order {
		if len(got) != perEntity {
			t.Fatalf("%s executed %d messages, want %d", key, len(got), perEntity)
		}
		for i, seq := range got {
			if seq != i {
				t.Fatalf("%s reordered: position %d ran seq %d (full: %v)", key, i, seq, got)
			}
		}
	}
	if len(q.DeadLetters()) != 0 {
		t.Fatalf("dead letters: %v", q.DeadLetters())
	}
}

// BenchmarkQueueDrain measures one enqueue plus the cycle a process engine
// worker runs on it — claim the entity, acknowledge the message, find no next
// one, release — against a standing backlog. The cost must not depend on the
// backlog: it fails if the deepest backlog costs more than twice the
// shallowest per operation.
func BenchmarkQueueDrain(b *testing.B) {
	backlogs := []int{100, 10_000, 100_000}
	perOp := map[int]float64{}
	for _, backlog := range backlogs {
		b.Run(fmt.Sprintf("backlog=%d", backlog), func(b *testing.B) {
			q := newQueue("bench", Options{})
			keys := make([]entity.Key, backlog+1)
			for i := range keys {
				keys[i] = entity.Key{Type: "Order", ID: fmt.Sprintf("O%d", i)}
			}
			for i := 0; i < backlog; i++ {
				q.Enqueue("t", Event{Name: "e", Entity: keys[i]})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// The entity claimed i operations ago is idle again.
				if _, err := q.Enqueue("t", Event{Name: "e", Entity: keys[(backlog+i)%len(keys)]}); err != nil {
					b.Fatal(err)
				}
				mb, m := q.TryClaim("t")
				if m == nil {
					b.Fatal("nothing claimable")
				}
				mb.Ack()
				if m := mb.Next(); m != nil {
					b.Fatalf("one message per entity, Next handed out %v", m)
				}
				mb.Release()
			}
			perOp[backlog] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		})
	}
	lo, hi := perOp[backlogs[0]], perOp[backlogs[len(backlogs)-1]]
	if lo > 0 && hi > 2*lo {
		b.Errorf("claim cost grows with the backlog: %.0f ns/op at %d, %.0f ns/op at %d",
			lo, backlogs[0], hi, backlogs[len(backlogs)-1])
	}
}
