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

func ev(name, key string) Event {
	return Event{Name: name, Entity: entity.Key{Type: "Order", ID: key}, TxnID: "txn-" + key}
}

func TestEnqueueDequeueAckFIFO(t *testing.T) {
	q := New("unit-1", Options{})
	for i := 0; i < 3; i++ {
		if _, err := q.Enqueue("orders", ev("order.created", fmt.Sprintf("O%d", i))); err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
	}
	if q.Len() != 3 {
		t.Fatalf("Len = %d", q.Len())
	}
	for i := 0; i < 3; i++ {
		m, err := q.Dequeue("orders")
		if err != nil {
			t.Fatalf("Dequeue: %v", err)
		}
		want := fmt.Sprintf("O%d", i)
		if m.Event.Entity.ID != want {
			t.Fatalf("FIFO violated: got %s, want %s", m.Event.Entity.ID, want)
		}
		if err := q.Ack(m.ID); err != nil {
			t.Fatalf("Ack: %v", err)
		}
	}
	if _, err := q.Dequeue("orders"); !errors.Is(err, ErrEmpty) {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
	if q.Acked() != 3 {
		t.Fatalf("Acked = %d", q.Acked())
	}
}

func TestDequeueTopicFilter(t *testing.T) {
	q := New("unit-1", Options{})
	q.Enqueue("orders", ev("order.created", "O1"))
	q.Enqueue("inventory", ev("inventory.reserved", "I1"))
	m, err := q.Dequeue("inventory")
	if err != nil || m.Event.Name != "inventory.reserved" {
		t.Fatalf("topic filter broken: %v %v", m, err)
	}
	q.Ack(m.ID)
	// Empty topic matches anything.
	m, err = q.Dequeue("")
	if err != nil || m.Event.Name != "order.created" {
		t.Fatalf("wildcard dequeue broken: %v %v", m, err)
	}
}

func TestVisibilityTimeoutRedelivery(t *testing.T) {
	now := time.Unix(0, 0)
	q := New("unit-1", Options{VisibilityTimeout: 10 * time.Second, Clock: func() time.Time { return now }})
	q.Enqueue("t", ev("e", "1"))
	m1, err := q.Dequeue("t")
	if err != nil {
		t.Fatalf("Dequeue: %v", err)
	}
	// Not acked; before the timeout nothing is deliverable.
	if _, err := q.Dequeue("t"); !errors.Is(err, ErrEmpty) {
		t.Fatalf("message visible during lease: %v", err)
	}
	if q.InFlight() != 1 {
		t.Fatalf("InFlight = %d", q.InFlight())
	}
	// After the timeout the message is redelivered (at-least-once).
	now = now.Add(11 * time.Second)
	m2, err := q.Dequeue("t")
	if err != nil {
		t.Fatalf("redelivery failed: %v", err)
	}
	if m2.ID != m1.ID {
		t.Fatalf("redelivered a different message: %d vs %d", m2.ID, m1.ID)
	}
	if m2.Attempts != 2 {
		t.Fatalf("Attempts = %d, want 2", m2.Attempts)
	}
	// Acking the expired first lease fails; acking the new one succeeds.
	if err := q.Ack(m2.ID); err != nil {
		t.Fatalf("Ack after redelivery: %v", err)
	}
}

func TestAckUnknownLease(t *testing.T) {
	q := New("unit-1", Options{})
	if err := q.Ack(42); !errors.Is(err, ErrUnknownLease) {
		t.Fatalf("want ErrUnknownLease, got %v", err)
	}
	if err := q.Nack(42, time.Second); !errors.Is(err, ErrUnknownLease) {
		t.Fatalf("want ErrUnknownLease, got %v", err)
	}
}

func TestNackBackoffAndRedelivery(t *testing.T) {
	now := time.Unix(0, 0)
	q := New("unit-1", Options{Clock: func() time.Time { return now }})
	q.Enqueue("t", ev("e", "1"))
	m, _ := q.Dequeue("t")
	if err := q.Nack(m.ID, 5*time.Second); err != nil {
		t.Fatalf("Nack: %v", err)
	}
	if _, err := q.Dequeue("t"); !errors.Is(err, ErrEmpty) {
		t.Fatal("nacked message visible before backoff")
	}
	now = now.Add(6 * time.Second)
	m2, err := q.Dequeue("t")
	if err != nil {
		t.Fatalf("Dequeue after backoff: %v", err)
	}
	if m2.Attempts != 2 {
		t.Fatalf("Attempts = %d", m2.Attempts)
	}
}

func TestDeadLetterAfterMaxAttempts(t *testing.T) {
	now := time.Unix(0, 0)
	q := New("unit-1", Options{MaxAttempts: 3, Clock: func() time.Time { return now }})
	q.Enqueue("t", ev("poison", "1"))
	for i := 0; i < 3; i++ {
		m, err := q.Dequeue("t")
		if err != nil {
			t.Fatalf("Dequeue %d: %v", i, err)
		}
		if err := q.Nack(m.ID, 0); err != nil {
			t.Fatalf("Nack %d: %v", i, err)
		}
	}
	if _, err := q.Dequeue("t"); !errors.Is(err, ErrEmpty) {
		t.Fatal("poison message still deliverable")
	}
	dead := q.DeadLetters()
	if len(dead) != 1 || dead[0].Event.Name != "poison" {
		t.Fatalf("dead letters = %+v", dead)
	}
}

func TestDelayedEnqueue(t *testing.T) {
	now := time.Unix(0, 0)
	q := New("unit-1", Options{Clock: func() time.Time { return now }})
	q.EnqueueDelayed("t", ev("e", "1"), 10*time.Second)
	if _, err := q.Dequeue("t"); !errors.Is(err, ErrEmpty) {
		t.Fatal("delayed message delivered early")
	}
	now = now.Add(11 * time.Second)
	if _, err := q.Dequeue("t"); err != nil {
		t.Fatalf("delayed message not delivered: %v", err)
	}
}

func TestCloseRejectsEnqueue(t *testing.T) {
	q := New("unit-1", Options{})
	q.Close()
	if _, err := q.Enqueue("t", ev("e", "1")); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if _, err := q.Dequeue("t"); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

func TestDequeueWaitDeliversWhenMessageArrives(t *testing.T) {
	q := New("unit-1", Options{})
	done := make(chan *Message, 1)
	go func() {
		m, err := q.DequeueWait("t", 2*time.Second)
		if err != nil {
			t.Errorf("DequeueWait: %v", err)
		}
		done <- m
	}()
	time.Sleep(20 * time.Millisecond)
	q.Enqueue("t", ev("late", "1"))
	select {
	case m := <-done:
		if m == nil || m.Event.Name != "late" {
			t.Fatalf("wrong message: %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("DequeueWait never returned")
	}
}

func TestDequeueWaitTimeout(t *testing.T) {
	q := New("unit-1", Options{})
	start := time.Now()
	_, err := q.DequeueWait("t", 30*time.Millisecond)
	if !errors.Is(err, ErrEmpty) {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("timeout much longer than requested")
	}
}

func TestDequeueWaitClose(t *testing.T) {
	q := New("unit-1", Options{})
	errc := make(chan error, 1)
	go func() {
		_, err := q.DequeueWait("t", 5*time.Second)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	q.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("want ErrClosed, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("DequeueWait did not observe Close")
	}
}

func TestOutboxPublishOnCommit(t *testing.T) {
	q := New("unit-1", Options{})
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
	q := New("unit-1", Options{})
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
	q := New("unit-1", Options{})
	q.Close()
	o := NewOutbox()
	o.Stage("t", ev("e", "1"))
	if _, err := o.Publish(q); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

func TestDedup(t *testing.T) {
	d := NewDedup(0)
	if d.Seen("a") {
		t.Fatal("first sighting reported as seen")
	}
	if !d.Seen("a") {
		t.Fatal("second sighting not reported")
	}
	if d.Seen("b") {
		t.Fatal("unrelated id reported as seen")
	}
	if d.Size() != 2 {
		t.Fatalf("Size = %d", d.Size())
	}
}

func TestDedupBoundedWindow(t *testing.T) {
	d := NewDedup(2)
	d.Seen("a")
	d.Seen("b")
	d.Seen("c") // evicts a
	if d.Size() != 2 {
		t.Fatalf("Size = %d, want 2", d.Size())
	}
	if d.Seen("a") {
		t.Fatal("evicted id should read as unseen")
	}
}

func TestDuplicateDeliveryWithIdempotentConsumer(t *testing.T) {
	// The queue duplicates every 2nd acked message; an idempotent consumer
	// (dedup on TxnID) still applies each event exactly once.
	q := New("unit-1", Options{DuplicateEvery: 2})
	const n = 20
	for i := 0; i < n; i++ {
		q.Enqueue("t", Event{Name: "deposit", TxnID: fmt.Sprintf("txn-%d", i)})
	}
	d := NewDedup(0)
	applied := 0
	deliveries := 0
	for {
		m, err := q.Dequeue("t")
		if errors.Is(err, ErrEmpty) {
			break
		}
		if err != nil {
			t.Fatalf("Dequeue: %v", err)
		}
		deliveries++
		if !d.Seen(m.Event.TxnID) {
			applied++
		}
		q.Ack(m.ID)
	}
	if deliveries <= n {
		t.Fatalf("expected duplicate deliveries, got %d for %d messages", deliveries, n)
	}
	if applied != n {
		t.Fatalf("idempotent consumer applied %d, want %d", applied, n)
	}
}

func TestBrokerQueuesAndDepth(t *testing.T) {
	b := NewBroker(Options{})
	q1 := b.Queue("unit-1")
	q2 := b.Queue("unit-2")
	if b.Queue("unit-1") != q1 {
		t.Fatal("broker returned a different queue instance")
	}
	q1.Enqueue("t", ev("e", "1"))
	q2.Enqueue("t", ev("e", "2"))
	q2.Enqueue("t", ev("e", "3"))
	if b.Depth() != 3 {
		t.Fatalf("Depth = %d", b.Depth())
	}
	names := b.Names()
	if len(names) != 2 || names[0] != "unit-1" || names[1] != "unit-2" {
		t.Fatalf("Names = %v", names)
	}
	b.Close()
	if _, err := q1.Enqueue("t", ev("e", "4")); !errors.Is(err, ErrClosed) {
		t.Fatal("broker Close did not close queues")
	}
}

func TestConsumeLoop(t *testing.T) {
	q := New("unit-1", Options{})
	const n = 10
	for i := 0; i < n; i++ {
		q.Enqueue("t", Event{Name: "e", TxnID: fmt.Sprintf("%d", i)})
	}
	var handled atomic.Int64
	var failedOnce atomic.Bool
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		Consume(q, "t", stop, 0, func(m *Message) error {
			// Fail the first delivery of txn "3" to exercise the nack path.
			if m.Event.TxnID == "3" && !failedOnce.Swap(true) {
				return errors.New("transient failure")
			}
			handled.Add(1)
			return nil
		})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for handled.Load() < n && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	q.Close()
	wg.Wait()
	if handled.Load() != n {
		t.Fatalf("handled = %d, want %d", handled.Load(), n)
	}
}

func TestConcurrentProducersConsumers(t *testing.T) {
	q := New("unit-1", Options{VisibilityTimeout: time.Minute})
	const producers, perProducer, consumers = 4, 200, 4
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.Enqueue("t", Event{Name: "e", TxnID: fmt.Sprintf("%d-%d", p, i)})
			}
		}(p)
	}
	var consumed atomic.Int64
	var cwg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < consumers; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			Consume(q, "t", stop, 0, func(*Message) error {
				consumed.Add(1)
				return nil
			})
		}()
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

// Property: for any enqueue count, dequeue+ack drains exactly that many
// messages and never invents or loses one (reliable delivery).
func TestReliableDeliveryProperty(t *testing.T) {
	f := func(count uint8) bool {
		q := New("unit", Options{})
		n := int(count % 64)
		for i := 0; i < n; i++ {
			q.Enqueue("t", Event{TxnID: fmt.Sprintf("%d", i)})
		}
		seen := map[string]bool{}
		for {
			m, err := q.Dequeue("t")
			if errors.Is(err, ErrEmpty) {
				break
			}
			if err != nil {
				return false
			}
			if seen[m.Event.TxnID] {
				return false // duplicate without fault injection
			}
			seen[m.Event.TxnID] = true
			q.Ack(m.ID)
		}
		return len(seen) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDequeueHoldsEntityBehindDelayedHead(t *testing.T) {
	now := time.Unix(0, 0)
	q := New("unit-1", Options{Clock: func() time.Time { return now }})
	// Entity X's head is delayed (a retry backoff in flight); a later X
	// message and an unrelated Y message are immediately deliverable.
	q.EnqueueDelayed("t", ev("step", "X"), 50*time.Millisecond)
	q.Enqueue("t", ev("step", "X"))
	q.Enqueue("t", ev("step", "Y"))

	// X is held back entirely — its second message may not overtake the
	// delayed head — while Y is served.
	m, err := q.Dequeue("t")
	if err != nil || m.Event.Entity.ID != "Y" {
		t.Fatalf("Dequeue = %v, %v; want Y", m, err)
	}
	if _, err := q.Dequeue("t"); !errors.Is(err, ErrEmpty) {
		t.Fatalf("X delivered around its delayed head: %v", err)
	}
	// Once the head becomes deliverable, X's messages come out in enqueue
	// order, one at a time: the second is withheld until the first settles.
	now = now.Add(time.Second)
	first, err := q.Dequeue("t")
	if err != nil {
		t.Fatalf("Dequeue after delay: %v", err)
	}
	if _, err := q.Dequeue("t"); !errors.Is(err, ErrEmpty) {
		t.Fatalf("second X message delivered while the first is leased: %v", err)
	}
	if err := q.Ack(first.ID); err != nil {
		t.Fatal(err)
	}
	second, err := q.Dequeue("t")
	if err != nil {
		t.Fatalf("Dequeue after ack: %v", err)
	}
	if first.ID > second.ID || first.Event.Entity.ID != "X" || second.Event.Entity.ID != "X" {
		t.Fatalf("X delivered out of order: %d then %d", first.ID, second.ID)
	}
}

func TestLeaseReclaimWithManyLeases(t *testing.T) {
	// The nextExpiry fast path must not break redelivery: lease a batch,
	// expire them all, and verify every message comes back.
	now := time.Unix(0, 0)
	q := New("unit-1", Options{VisibilityTimeout: 10 * time.Second, Clock: func() time.Time { return now }})
	const n = 64
	for i := 0; i < n; i++ {
		q.Enqueue("t", ev("step", fmt.Sprintf("K%d", i)))
	}
	for i := 0; i < n; i++ {
		if _, err := q.Dequeue("t"); err != nil {
			t.Fatalf("Dequeue: %v", err)
		}
	}
	if q.InFlight() != n {
		t.Fatalf("InFlight = %d", q.InFlight())
	}
	now = now.Add(11 * time.Second)
	seen := 0
	for {
		m, err := q.Dequeue("t")
		if errors.Is(err, ErrEmpty) {
			break
		}
		if err != nil {
			t.Fatalf("Dequeue: %v", err)
		}
		if m.Attempts != 2 {
			t.Fatalf("Attempts = %d, want 2", m.Attempts)
		}
		seen++
	}
	if seen != n {
		t.Fatalf("redelivered %d of %d", seen, n)
	}
}

func TestMaxDepthShedsFreshEnqueuesTyped(t *testing.T) {
	q := New("unit-1", Options{MaxDepth: 2})
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
	m, err := q.Dequeue("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Ack(m.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Enqueue("t", ev("e", "retry")); err != nil {
		t.Fatalf("enqueue after drain: %v", err)
	}
}

// Redeliveries — nacks and lease expiries — are exempt from the high-water
// mark: admission control sheds only work the queue never accepted, so
// accepted per-entity work is never dropped or reordered by overload.
func TestRedeliveryExemptFromMaxDepth(t *testing.T) {
	now := time.Unix(0, 0)
	q := New("unit-1", Options{MaxDepth: 1, VisibilityTimeout: 10 * time.Second, Clock: func() time.Time { return now }})
	if _, err := q.Enqueue("t", ev("e", "1")); err != nil {
		t.Fatal(err)
	}
	m, err := q.Dequeue("t")
	if err != nil {
		t.Fatal(err)
	}
	// The queue is at capacity again with a second accepted message.
	if _, err := q.Enqueue("t", ev("e", "2")); err != nil {
		t.Fatal(err)
	}
	// Nack of the leased message re-enters past the mark without shedding.
	if err := q.Nack(m.ID, 0); err != nil {
		t.Fatalf("nack into a full queue: %v", err)
	}
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (redelivery admitted)", q.Len())
	}
	// A fresh enqueue is shed.
	if _, err := q.Enqueue("t", ev("e", "3")); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("fresh enqueue: err = %v, want ErrOverloaded", err)
	}
	// Lease-expiry requeue is exempt too.
	m2, err := q.Dequeue("t")
	if err != nil {
		t.Fatal(err)
	}
	now = now.Add(11 * time.Second)
	m3, err := q.Dequeue("t")
	if err != nil {
		t.Fatalf("expired lease did not redeliver into the full queue: %v", err)
	}
	_ = m2
	_ = m3
}

// A message whose deadline passed while queued is dropped at dequeue — work
// nobody is waiting for anymore is not executed.
func TestDeadlineExpiredDroppedAtDequeue(t *testing.T) {
	now := time.Unix(0, 0)
	q := New("unit-1", Options{Clock: func() time.Time { return now }})
	stale := ev("e", "stale")
	stale.Deadline = now.Add(5 * time.Second)
	if _, err := q.Enqueue("t", stale); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Enqueue("t", ev("e", "fresh")); err != nil {
		t.Fatal(err)
	}
	now = now.Add(6 * time.Second)
	m, err := q.Dequeue("t")
	if err != nil {
		t.Fatal(err)
	}
	if m.Event.Entity.ID != "fresh" {
		t.Fatalf("dequeued %s, want the un-deadlined message", m.Event.Entity.ID)
	}
	if q.DeadlineDropped() != 1 {
		t.Fatalf("DeadlineDropped = %d, want 1", q.DeadlineDropped())
	}
	// The drop is terminal: not redelivered, not dead-lettered.
	if len(q.DeadLetters()) != 0 {
		t.Fatalf("deadline drop went to the dead letter queue: %v", q.DeadLetters())
	}
	if _, err := q.Dequeue("t"); !errors.Is(err, ErrEmpty) {
		t.Fatalf("stale message still deliverable: %v", err)
	}
}

// An acknowledged message is recycled for a later enqueue. Every field is
// cleared first, so nothing of the old delivery shows through the new one,
// and what a consumer (wrongly) kept of the old one is never written into.
func TestRecycledMessageCarriesNothingOver(t *testing.T) {
	now := time.Unix(100, 0)
	q := New("unit-1", Options{Clock: func() time.Time { return now }})
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
	q := New("unit-1", Options{})
	const backlog = maxFree + 500
	for i := 0; i < backlog; i++ {
		q.Enqueue("t", ev("e", fmt.Sprintf("O%d", i)))
	}
	for {
		mb, _ := q.TryClaim("t")
		if mb == nil {
			break
		}
		mb.Ack()
		mb.Release()
	}
	if q.Acked() != backlog || q.nFreeMsg != maxFree {
		t.Fatalf("acked %d, kept %d for reuse; want %d, %d", q.Acked(), q.nFreeMsg, backlog, maxFree)
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
	q := New("unit-1", Options{})
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
	other, err := q.Dequeue("t")
	if err != nil || other.Event.Entity.ID != "Y" {
		t.Fatalf("Dequeue beside an owner = %v, %v; want Y", other, err)
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
	if q.Acked() != 3 || q.Len() != 0 {
		t.Fatalf("Acked = %d, Len = %d; want 3, 0", q.Acked(), q.Len())
	}
	if s := q.Stats(); s.Chained != 2 || s.PeakDepth != 3 {
		t.Fatalf("Stats = %+v; want 2 messages popped in place, peak depth 3", s)
	}
}

func TestClaimRetryKeepsHeadInPlaceAndParks(t *testing.T) {
	now := time.Unix(0, 0)
	q := New("unit-1", Options{MaxAttempts: 3, Clock: func() time.Time { return now }})
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
	q := New("unit-1", Options{})
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
	q := New("unit-1", Options{})
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
// Claim owners and Dequeue lease consumers work one queue together while
// every way a delivery can repeat is exercised — Retry and Nack backoffs,
// leases abandoned to the visibility timeout (after executing, the worst
// case), unsettled Releases and transport duplicates (DuplicateEvery). Each
// consumer is idempotent on TxnID, as the contract requires. Every entity's
// execution order must equal its enqueue order, with every message executed.
func TestMixedConsumersKeepPerEntityOrder(t *testing.T) {
	const (
		producers   = 3
		perProducer = 6 // entities per producer (disjoint, so a producer's order is the entity's enqueue order)
		perEntity   = 40
		owners      = 3
		leasers     = 3
		total       = producers * perProducer * perEntity
	)
	q := New("stress", Options{VisibilityTimeout: 30 * time.Millisecond, MaxAttempts: 1 << 20, DuplicateEvery: 7})

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
		}(w)
	}
	for c := 0; c < leasers; c++ {
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
				m, err := q.DequeueWait("t", 2*time.Millisecond)
				if err != nil {
					continue
				}
				switch roll := rng.Intn(100); {
				case roll < 10:
					q.Nack(m.ID, time.Duration(rng.Intn(300))*time.Microsecond)
				case roll < 13:
					execute(m) // and lose the ack: the lease runs out
				default:
					execute(m)
					q.Ack(m.ID)
				}
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
		t.Fatalf("timed out: %d/%d messages executed, backlog %d, in flight %d", n, total, q.Len(), q.InFlight())
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

// BenchmarkQueueDrain measures one enqueue + dequeue + ack against a standing
// backlog. The cost must not depend on the backlog: it fails if the deepest
// backlog costs more than twice the shallowest per operation.
func BenchmarkQueueDrain(b *testing.B) {
	backlogs := []int{100, 10_000, 100_000}
	perOp := map[int]float64{}
	for _, backlog := range backlogs {
		b.Run(fmt.Sprintf("backlog=%d", backlog), func(b *testing.B) {
			q := New("bench", Options{})
			keys := make([]entity.Key, backlog+1)
			for i := range keys {
				keys[i] = entity.Key{Type: "Order", ID: fmt.Sprintf("O%d", i)}
			}
			for i := 0; i < backlog; i++ {
				q.Enqueue("t", Event{Name: "e", Entity: keys[i]})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// The entity dequeued i operations ago is idle again.
				if _, err := q.Enqueue("t", Event{Name: "e", Entity: keys[(backlog+i)%len(keys)]}); err != nil {
					b.Fatal(err)
				}
				m, err := q.Dequeue("t")
				if err != nil {
					b.Fatal(err)
				}
				if err := q.Ack(m.ID); err != nil {
					b.Fatal(err)
				}
			}
			perOp[backlog] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		})
	}
	lo, hi := perOp[backlogs[0]], perOp[backlogs[len(backlogs)-1]]
	if lo > 0 && hi > 2*lo {
		b.Errorf("dequeue cost grows with the backlog: %.0f ns/op at %d, %.0f ns/op at %d",
			lo, backlogs[0], hi, backlogs[len(backlogs)-1])
	}
}
