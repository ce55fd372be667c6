// The worker pool: workers claim whole entities straight from the queue.
//
// The scheduling model (principles 2.5/2.6): steps for *different* entities
// may run concurrently — that is where the parallelism of serialization
// units comes from — but steps for the *same* entity must execute serially,
// in enqueue order, even across retries and redeliveries; the paper's
// at-least-once-plus-idempotence recipe only yields effective exactly-once
// when a single entity's steps are never reordered.
//
// The queue already keeps each entity's pending events in a mailbox of its
// own, in enqueue order, with at most one owner (internal/queue). A worker
// blocks in queue.Claim until some entity has a deliverable event and no
// owner, runs that entity's events one after another while it owns it,
// acknowledging each in place, and releases it. A failed step stays at the
// head of the mailbox and the entity parks for the retry backoff, so a retry
// can never be overtaken by the entity's later steps. Any worker may claim
// any entity, so concurrency scales with cores while the ordering contract
// is untouched.
package process

import (
	"repro/internal/entity"
	"repro/internal/queue"
)

// laneBudget is how many deliveries one claim may consume before the worker
// gives the entity back: a continuously refilled hot entity goes to the back
// of the run list so the entities queued behind it make progress instead of
// starving.
const laneBudget = 64

// work claims entities and drains them until the engine stops or the queue
// closes.
func (e *Engine) work(w int) {
	defer e.workers.Done()
	var frames stepFrames // this worker's step scaffolding, reused step after step
	for {
		mb, m := e.q.Claim(e.opts.Topic, w, e.stopCh)
		if mb == nil {
			return
		}
		key := mb.Key()
		e.drain(mb, m, &key, &frames)
	}
}

// drain executes an owned entity's deliveries in enqueue order, starting
// with m, and releases the entity: when its mailbox is empty, when its head
// delivery failed and backs off (the delivery stays at the head, so the
// entity's later steps cannot overtake it), when this claim's fairness
// budget is spent, or when the engine is stopping. It returns the number of
// deliveries handled. laneKey and frames are executeStep's.
func (e *Engine) drain(mb *queue.Mailbox, m *queue.Message, laneKey *entity.Key, frames *stepFrames) int {
	n := 0
	for m != nil {
		n++
		settled := e.deliver(m, mb.Entity(), laneKey, frames)
		last := n == laneBudget || e.stopping()
		switch {
		case settled && !last:
			// The usual case, in one hold of the queue's lock: settle, take
			// the next delivery, or give the entity back when there is none.
			if m = mb.AckNext(); m == nil {
				return n
			}
			continue
		case settled:
			mb.Ack()
		default:
			mb.Retry(e.opts.RetryBackoff)
		}
		if last {
			break
		}
		m = mb.Next()
	}
	mb.Release()
	return n
}
