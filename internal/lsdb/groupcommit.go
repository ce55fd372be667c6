// Group-commit append batching (Options.GroupCommit).
//
// The write path's fixed costs — acquiring the shard's write lock and taking
// the global LSN sequence lock — are paid once per append on the serial path.
// Under concurrent writers those acquisitions dominate: every append is a
// contended lock handoff plus a scheduler round trip. Group commit amortises
// them the way write-ahead-log group commit amortises the log-force: writers
// enqueue their already-sanitized op-sets on a per-shard commit queue, the
// first writer to find the queue idle becomes the *leader*, and the leader
// drains the queue in batches — one shard-lock hold and one contiguous LSN
// run per batch — then wakes each follower with its individual AppendResult.
// The leader's own request rides in its first batch, so an uncontended
// append never pays a channel round trip at all.
//
// Equivalence with the serial path is the contract (and is what the
// TestGroupCommit* suite asserts): requests are validated in arrival order,
// each against the requests validated before it in the batch, so a request
// observes its batch predecessors exactly as it would have observed
// committed appends;
// duplicate-transaction detection, validation-mode errors and tentative
// semantics are all per-request; failed requests consume no LSN, so the log
// stays dense. Readers are unaffected — they take the shard lock as before
// and see batches atomically.
package lsdb

import (
	"fmt"
	"sync"

	"repro/internal/clock"
	"repro/internal/entity"
)

// appendReq is one writer's enqueued append: the sanitized operations plus a
// reusable one-slot channel the leader signals once res/err is filled in.
// Requests are pooled; the channel is drained by exactly one receive per
// signal, so a request (and its channel) can be reused as soon as its writer
// has read the result.
type appendReq struct {
	typ       *entity.Type
	key       entity.Key
	ops       []entity.Op
	stamp     clock.Timestamp
	origin    clock.NodeID
	txnID     string
	tentative bool

	// e is the entity's entry and next the applied (not yet frozen) state,
	// both set by the leader's validation pass; requests that fail validation
	// never reach the commit pass and never consume an LSN.
	e    *entry
	next *entity.State
	res  AppendResult
	err  error
	done chan struct{}
}

var reqPool = sync.Pool{
	New: func() interface{} { return &appendReq{done: make(chan struct{}, 1)} },
}

// appendGrouped enqueues one append on the shard's commit queue. The first
// writer to find the queue idle becomes the leader and drains it, its own
// request first; everyone else parks until a leader has committed their
// batch. Ops are already sanitized and the type resolved.
func (db *DB) appendGrouped(s *shard, typ *entity.Type, key entity.Key, ops []entity.Op, stamp clock.Timestamp, origin clock.NodeID, txnID string, tentative bool) (AppendResult, error) {
	req := reqPool.Get().(*appendReq)
	req.typ, req.key, req.ops = typ, key, ops
	req.stamp, req.origin, req.txnID, req.tentative = stamp, origin, txnID, tentative
	s.qmu.Lock()
	s.pending = append(s.pending, req)
	if s.draining {
		s.qmu.Unlock()
		<-req.done
	} else {
		// Leadership invariant: draining is only ever cleared with the queue
		// observed empty, so a writer that finds draining unset enqueued onto
		// an empty queue — its request is first in the leader's first batch
		// and is completed by its own drain, no channel round trip needed.
		s.draining = true
		s.qmu.Unlock()
		db.drainShard(s, req)
	}
	res, err := req.res, req.err
	req.typ, req.ops, req.e, req.next = nil, nil, nil, nil
	req.res, req.err = AppendResult{}, nil
	reqPool.Put(req)
	return res, err
}

// drainShard is the leader loop: take up to MaxBatch queued requests, commit
// them as one batch under a single shard-lock hold, signal the followers,
// repeat until the queue is empty. The shard lock is released between
// batches, so readers and history rewrites (MarkObsolete, Compact) interleave
// at batch granularity instead of waiting out the whole queue. Leadership
// ends only under qmu with the queue observed empty, so there is never a
// moment where requests are pending but no leader is responsible for them.
// self is the leader's own request; it is signalled by returning, not through
// its channel.
func (db *DB) drainShard(s *shard, self *appendReq) {
	// batch is the in-flight, already-dequeued batch; the deferred recovery
	// below needs it so a panic escaping the commit path (realistically: a
	// user-supplied CommitHook) cannot wedge the shard. Without it, draining
	// would stay set forever and every parked and future writer on this shard
	// would block on its done channel.
	var batch []*appendReq
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		s.qmu.Lock()
		rest := s.pending
		s.pending = nil
		s.draining = false
		s.qmu.Unlock()
		// The in-flight batch may have installed its records before the
		// panic (a CommitHook runs post-install), so this error is
		// indeterminate for those writers — their append may be committed
		// and visible; see Options.CommitHook.
		err := fmt.Errorf("lsdb: group-commit leader failed (append may be committed): %v", r)
		for _, q := range [2][]*appendReq{batch, rest} {
			for _, req := range q {
				if req == self {
					continue
				}
				req.err = err
				req.done <- struct{}{}
			}
		}
		panic(r)
	}()
	for {
		s.qmu.Lock()
		n := min(len(s.pending), db.opts.MaxBatch)
		if n == 0 {
			s.draining = false
			s.qmu.Unlock()
			return
		}
		// The batch is copied out and the rest moved down, so the queue and
		// the leader each keep one array for good: an uncontended append
		// allocates neither.
		batch = append(s.batch[:0], s.pending[:n]...)
		rest := copy(s.pending, s.pending[n:])
		clear(s.pending[rest:])
		s.pending = s.pending[:rest]
		s.qmu.Unlock()

		live, wait := db.commitBatch(s, batch, s.live[:0])
		// The replication ack wait runs after commitBatch released the shard
		// lock and before the followers are signalled: readers and the next
		// batch's enqueuers proceed during the wait, but a sink error still
		// reaches every writer of this batch.
		if err := waitCommitSink(wait); err != nil {
			for _, r := range live {
				r.err = err
			}
		}
		for _, r := range batch {
			if r != self {
				r.done <- struct{}{}
			}
		}
		// Signalled followers may already be recycling their requests; drop
		// the references so the recovery path can never double-signal them
		// and the buffers, which are kept, do not pin them.
		clear(batch)
		clear(live)
		s.batch, s.live, batch = batch[:0], live[:0], nil
	}
}

// commitBatch applies and commits one batch under one shard-lock hold.
//
// Pass one validates every request in arrival order: duplicate-txn check,
// prior-state lookup and copy-on-write Apply, with the survivors so far (live)
// standing in for the not-yet-committed effects of earlier requests in the
// same batch. A failure parks the error on that request alone; later requests
// proceed against the last good state.
//
// Pass two builds the survivors' records in one run of segment slots,
// reserves one contiguous LSN run — a single sequence-lock acquisition for
// the whole batch — and installs the records and frozen states in order.
// Because failed requests were excluded before the reservation, every
// reserved LSN is used and the global log stays dense, exactly as on the
// serial path.
func (db *DB) commitBatch(s *shard, batch, live []*appendReq) ([]*appendReq, func() error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Entries created for requests that end up installing nothing go again;
	// only after the installs, because a failed request can share its entry
	// with a surviving one.
	defer func() {
		for _, r := range batch {
			if r.e != nil {
				s.dropIfEmptyLocked(r.key, r.e)
			}
		}
	}()
	for _, r := range batch {
		r.e = s.ensure(r.key)
		next, warnings, err := db.applyForAppendLocked(s, r.e, r.typ, r.key, r.ops, r.txnID, r.tentative, live)
		if err != nil {
			r.err = err
			continue
		}
		r.next = next
		r.res.Warnings = warnings
		live = append(live, r)
	}
	if len(live) == 0 {
		return live, nil
	}
	// One commit cycle — one LSN run, one backend append, one log force, one
	// commit-hook call — for the whole batch: this is where group commit
	// amortises durability latency across every writer in the batch.
	// Log-first: the batch reaches the durable backend before any record is
	// installed, so a backend refusal fails the whole batch cleanly — the
	// slots are withdrawn, no state changed, every writer gets the typed
	// degraded error, and the rolled-back reservation keeps the log dense.
	recs := s.reserveLocked(len(live), db.opts.SegmentSize)
	for i, r := range live {
		recs[i] = Record{
			Key:       r.key,
			Ops:       r.ops,
			Stamp:     r.stamp,
			Origin:    r.origin,
			TxnID:     r.txnID,
			Tentative: r.tentative,
		}
	}
	if err := db.logAppend(recs); err != nil {
		s.withdrawLocked(len(live))
		for _, r := range live {
			r.err = err
			// The applied-but-never-installed state was private to this
			// batch (never frozen, never shared); its copied chunks go back
			// to the free list. Chained applies on one key already revoked
			// the intermediates' ownership, so only truly private chunks
			// are released.
			r.next.Recycle()
			r.next = nil
		}
		return live, nil
	}
	for i, r := range live {
		r.res.Record = &recs[i]
		db.commitAppendLocked(s, r.e, &recs[i], r.next)
	}
	s.sealFullLocked()
	// The sink's capture runs here under the shard lock (order is the
	// contract); the returned ack wait is the caller's to run after this
	// function releases the lock. Its post-install error (replication ack
	// shortfall) is indeterminate for the whole batch — the records are
	// committed and visible — so the caller hands it to every writer.
	return live, db.postCommitLocked(recs)
}
