// Package txn implements solipsistic transactions (principle 2.10): each
// transaction acts on its local view of the data, buffers operation
// descriptors and commits unconditionally; the infrastructure resolves
// conflicts afterwards with the same machinery it uses across replicas.
//
// The baselines principles 2.5 and 2.10 argue against, optimistic
// validation, pessimistic locking and two-phase commit, are not here: the
// experiments build them around Manager.Run and Kernel.Transact in the root
// test fixtures (baseline_test.go).
//
// Transactions target exactly one serialization unit (one lsdb.DB). A
// focused transaction additionally touches exactly one entity; the manager
// can enforce this (principle 2.5/2.6) or merely report it.
package txn

import (
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/entity"
	"repro/internal/lsdb"
	"repro/internal/queue"
)

// Common errors.
var (
	// ErrMultiEntity is returned when a focused transaction touches more
	// than one entity (principle 2.5 violation).
	ErrMultiEntity = errors.New("txn: transaction touches multiple entities")
	// ErrDone is returned when using a transaction after it committed or aborted.
	ErrDone = errors.New("txn: already finished")
)

// Options configure a Manager.
type Options struct {
	// Node stamps transactions with the unit/replica identity.
	Node clock.NodeID
	// EnforceSingleEntity makes the commit fail with ErrMultiEntity when a
	// transaction wrote more than one entity (SOUPS discipline, 2.6).
	EnforceSingleEntity bool
}

// Manager creates transactions against one serialization unit.
type Manager struct {
	opts Options
	db   *lsdb.DB
	hlc  *clock.HLC
	ids  clock.Sequence
	// idPrefix is "<store node>-txn-"; a transaction id is it plus a sequence
	// number.
	idPrefix string

	stats counters
}

// counters is Stats as the commit path bumps it: no lock anywhere.
type counters struct {
	commits, aborts atomic.Uint64
}

// Stats counts transaction outcomes.
type Stats struct {
	Commits uint64
	Aborts  uint64
	// Conflicts stays zero: a solipsistic commit never checks for one. The
	// repository benchmark still reports it.
	Conflicts uint64
}

// NewManager creates a transaction manager over db; a nil hlc gets a clock
// of its own.
func NewManager(db *lsdb.DB, hlc *clock.HLC, opts Options) *Manager {
	if hlc == nil {
		hlc = clock.NewHLC(opts.Node)
	}
	// The ids are the store's: "<db node>-txn-<n>", resumed past every one
	// the store ever committed (lsdb.DB.TxnFloor). A commit treats a
	// duplicate transaction id as an at-least-once retry and silently skips
	// the append, and a promise's id is its transaction's, so a manager
	// opened over a recovered log (durable restart, promoted standby) must
	// not recycle ids: a fresh write wearing an old id would be dropped as
	// its own replay, a fresh promise would take a settled one's id.
	m := &Manager{opts: opts, db: db, hlc: hlc, idPrefix: string(db.Node()) + "-txn-"}
	m.ResumeIDs()
	return m
}

// ResumeIDs moves the manager's ids past every one its store holds
// (lsdb.DB.TxnFloor). NewManager does it at open; a kernel does it again
// after records arrive by another path than this manager's commits — an
// Import — so its next id is not one of theirs.
func (m *Manager) ResumeIDs() { m.ids.AdvanceTo(m.db.TxnFloor()) }

// DB returns the underlying serialization unit.
func (m *Manager) DB() *lsdb.DB { return m.db }

// Stats returns a copy of the outcome counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Commits: m.stats.commits.Load(),
		Aborts:  m.stats.aborts.Load(),
	}
}

// Txn is one transaction. Txns are not safe for concurrent use by multiple
// goroutines; each goroutine begins its own.
type Txn struct {
	m  *Manager
	id string
	// outbox stages emitted events; nil until the first Emit.
	outbox *queue.Outbox
	done   bool
	// focus, when set, is the handle of the entity the transaction was begun
	// for (Focus): a write to that entity commits through it.
	focus *lsdb.Handle
	// wrote is set once the commit appended a record under the id.
	wrote bool

	// The operations buffered per entity, in first-touch order: the first
	// entity's in first, the others' in more. A focused transaction writes
	// one entity (principle 2.4), which takes no slice — and no pointer from
	// the Txn into itself, so one begun on a caller's stack stays there.
	first  write
	more   []write
	nwrite int
}

// write is the buffered operations against one entity.
type write struct {
	key entity.Key
	ops []entity.Op
}

// begin starts a transaction.
func (m *Manager) begin() *Txn {
	t := new(Txn)
	m.BeginIn(t, "")
	return t
}

// BeginIn starts a transaction in storage the caller supplies and reuses: a
// process worker runs one step at a time, so it begins every step's
// transaction in the same Txn. Whatever transaction t held before must be
// finished, and nothing may still use it — t is that transaction no longer.
// The transaction runs under id, or under a fresh one the manager mints when
// id is "": a caller that names the id makes a retry of the same work the
// same transaction, which the store applies once (lsdb.ErrDuplicateTxn).
func (m *Manager) BeginIn(t *Txn, id string) {
	if id == "" {
		var buf [64]byte // on the stack: the id is the only allocation
		id = string(strconv.AppendUint(append(buf[:0], m.idPrefix...), m.ids.Next(), 10))
	}
	*t = Txn{m: m, id: id}
}

// Focus tells a transaction the entity it was begun for, as its queue
// resolved it: a process step's, the entity its event was delivered to. When
// ent is the handle of the manager's store (lsdb.Handle), a write to that
// entity commits looking no key up; anything else changes nothing.
func (t *Txn) Focus(ent queue.Entity) {
	if h, ok := ent.(*lsdb.Handle); ok && t.m.db.Owns(h) {
		t.focus = h
	}
}

// at returns the i-th buffered write, i < t.nwrite.
func (t *Txn) at(i int) *write {
	if i == 0 {
		return &t.first
	}
	return &t.more[i-1]
}

// written returns the buffered write against key, or nil.
func (t *Txn) written(key entity.Key) *write {
	for i := range t.nwrite {
		if w := t.at(i); w.key == key {
			return w
		}
	}
	return nil
}

// ID returns the transaction identifier (also used for idempotence).
func (t *Txn) ID() string { return t.id }

// Wrote reports whether the transaction's commit appended a record: false
// before the commit, and after one that had nothing to write.
func (t *Txn) Wrote() bool { return t.wrote }

// Read returns the current (subjective) state of an entity, including the
// transaction's own buffered writes. Reading a non-existent entity returns an
// empty state, not an error: principle 2.2 says data entry must not be
// blocked just because referenced data has not arrived yet.
//
// A read with no buffered writes is zero-copy: the store's frozen cached
// state is returned directly, so the caller must State.Thaw before mutating
// it. With buffered writes the overlay is applied copy-on-write, so the
// returned state is already a private mutable value.
func (t *Txn) Read(key entity.Key) (*entity.State, error) {
	if t.done {
		return nil, ErrDone
	}
	st, _, err := t.m.db.Current(key)
	if errors.Is(err, lsdb.ErrNotFound) {
		st = entity.NewState(key)
	} else if err != nil {
		return nil, err
	}
	// Overlay the transaction's own buffered operations (read-your-writes
	// within the transaction).
	if w := t.written(key); w != nil {
		typ, ok := t.m.db.TypeOf(key.Type)
		if !ok {
			return nil, fmt.Errorf("%w: %s", lsdb.ErrUnknownType, key.Type)
		}
		overlaid, _, err := entity.Apply(typ, st, w.ops, entity.Managed)
		if err != nil {
			return nil, err
		}
		return overlaid, nil
	}
	return st, nil
}

// Update buffers operations against an entity.
func (t *Txn) Update(key entity.Key, ops ...entity.Op) error {
	if t.done {
		return ErrDone
	}
	if len(ops) == 0 {
		return nil
	}
	w := t.written(key)
	if w == nil {
		if t.nwrite > 0 {
			t.more = append(t.more, write{})
		}
		t.nwrite++
		w = t.at(t.nwrite - 1)
		w.key = key
	}
	if w.ops == nil {
		// Shared with the caller, as the store shares operations all the
		// way into its log; the clamp makes a later append copy.
		w.ops = ops[:len(ops):len(ops)]
	} else {
		w.ops = append(w.ops, ops...)
	}
	return nil
}

// Emit stages an event for publication if and only if the transaction
// commits (the transactional outbox of principle 2.4).
func (t *Txn) Emit(topic string, ev queue.Event) {
	ev.TxnID = t.id
	if t.outbox == nil {
		t.outbox = queue.NewOutbox()
	}
	t.outbox.StageDelayed(topic, ev, 0)
}

// discardStaged drops the staged events of a transaction that will not
// commit them.
func (t *Txn) discardStaged() {
	if t.outbox != nil {
		t.outbox.Discard()
	}
}

// Entities returns the keys this transaction has written, in first-touch
// order.
func (t *Txn) Entities() []entity.Key {
	keys := make([]entity.Key, t.nwrite)
	for i := range keys {
		keys[i] = t.at(i).key
	}
	return keys
}

// CommitResult describes a successful commit.
type CommitResult struct {
	TxnID string
	Stamp clock.Timestamp
	// Warnings carries managed-mode constraint violations to be handled by
	// follow-up process steps (principle 2.2).
	Warnings []entity.Warning
	// PublishedEvents lists the message ids of events flushed to the queue.
	PublishedEvents []uint64

	// first is the first record written, when written is set, and more the
	// rest: a focused transaction's one record costs the result no slice.
	first   lsdb.Record
	written bool
	more    []lsdb.Record
}

// Records returns the LSDB records written, one per entity, in first-touch
// order. They are copies: what happens to the log afterwards never shows in
// them.
func (r *CommitResult) Records() []lsdb.Record {
	if !r.written {
		return nil
	}
	return append([]lsdb.Record{r.first}, r.more...)
}

// add appends one written record.
func (r *CommitResult) add(rec lsdb.Record) {
	if r.written {
		r.more = append(r.more, rec)
	} else {
		r.first, r.written = rec, true
	}
}

// commit finishes the transaction: it appends one record per written entity
// to the LSDB and publishes staged events to q (if q is non-nil). On failure
// everything is discarded. A commit sink's failure after a record was
// installed (lsdb.ErrCommittedLocally) is not one: the transaction commits
// in full, and that error is returned after it has. A write the store
// refuses as already applied (lsdb.ErrDuplicateTxn: a transaction begun under
// the id of one that committed) makes the transaction its replay: the other
// writes still go in, the staged events are dropped, and the commit returns
// that error.
func (t *Txn) commit(q *queue.Queue) (CommitResult, error) {
	var res CommitResult
	err := t.commitInto(q, &res)
	return res, err
}

// CommitDiscard is commit for a caller with no use for the CommitResult —
// the process engine, once per step: the records written are not copied out
// of the log for it.
func (t *Txn) CommitDiscard(q *queue.Queue) error { return t.commitInto(q, nil) }

// commitInto is commit's body. res, when non-nil, receives the result as the
// records are written (zero again on a failure to write one); its records
// are copies — the store's own records never leave it by reference.
func (t *Txn) commitInto(q *queue.Queue, res *CommitResult) error {
	if t.done {
		return ErrDone
	}
	t.done = true

	if t.m.opts.EnforceSingleEntity && t.nwrite > 1 {
		t.fail()
		return fmt.Errorf("%w: %d entities", ErrMultiEntity, t.nwrite)
	}
	stamp := t.m.hlc.Now()
	if res != nil {
		*res = CommitResult{TxnID: t.id, Stamp: stamp}
	}
	var ar lsdb.AppendResult
	var sinkErr error // the first lsdb.ErrCommittedLocally: installed, replication in doubt
	var dupErr error  // the first lsdb.ErrDuplicateTxn: this is a replay
	for i := range t.nwrite {
		w := t.at(i)
		var h *lsdb.Handle
		if t.focus != nil && t.focus.Key() == w.key {
			h = t.focus
		}
		var out *lsdb.AppendResult
		if res != nil {
			out = &ar
		}
		err := t.m.db.AppendTo(h, w.key, w.ops, stamp, t.m.opts.Node, t.id, out)
		if err != nil {
			switch {
			case errors.Is(err, lsdb.ErrDuplicateTxn):
				if dupErr == nil {
					dupErr = err
				}
				continue
			case errors.Is(err, lsdb.ErrCommittedLocally):
				// The record is installed: the transaction goes on committing
				// and reports the sink's failure once it has.
				if sinkErr == nil {
					sinkErr = err
				}
			default:
				t.fail()
				if res != nil {
					*res = CommitResult{}
				}
				return err
			}
		}
		t.wrote = true
		if res != nil {
			res.add(ar.Record)
			res.Warnings = append(res.Warnings, ar.Warnings...)
		}
	}
	if dupErr != nil {
		t.discardStaged()
		return dupErr
	}
	if q != nil && t.outbox != nil {
		ids, err := t.outbox.Publish(q)
		if err != nil {
			// The data is committed; event publication failing is an
			// infrastructure error surfaced to the caller for retry.
			return fmt.Errorf("txn: committed but event publication failed: %w", err)
		}
		if res != nil {
			res.PublishedEvents = ids
		}
	} else {
		t.discardStaged()
	}
	t.m.stats.commits.Add(1)
	return sinkErr
}

// Abort discards all buffered work.
func (t *Txn) Abort() {
	if t.done {
		return
	}
	t.done = true
	t.discardStaged()
	t.fail()
}

func (t *Txn) fail() { t.m.stats.aborts.Add(1) }

// Update runs the transaction that applies ops to key and does nothing else
// — Run with a function that only calls Txn.Update — and publishes nothing.
// Without a function to hand it to, the transaction stays off the heap.
func (m *Manager) Update(key entity.Key, ops ...entity.Op) (CommitResult, error) {
	var t Txn
	m.BeginIn(&t, "")
	t.Update(key, ops...)
	var res CommitResult
	err := t.commitInto(nil, &res)
	return res, err
}

// Promise runs the transaction that makes a promise (principle 2.9): one
// tentative record of ops on key, whose transaction id is the promise's id.
// It is refused with apology.ErrPromiseLimit, and writes nothing, when key
// already carries limit pending promises; zero means no limit.
func (m *Manager) Promise(key entity.Key, limit int, ops ...entity.Op) (CommitResult, error) {
	var t Txn
	m.BeginIn(&t, "")
	res := CommitResult{TxnID: t.id, Stamp: m.hlc.Now()}
	ar, err := m.db.AppendPromise(key, ops, res.Stamp, m.opts.Node, t.id, limit)
	if err != nil {
		t.fail()
		return CommitResult{}, err
	}
	res.add(ar.Record)
	res.Warnings = ar.Warnings
	m.stats.commits.Add(1)
	return res, nil
}

// Run executes fn inside a transaction and commits it, publishing its
// staged events to q. It is the convenience most call sites use.
func (m *Manager) Run(q *queue.Queue, fn func(*Txn) error) (CommitResult, error) {
	t := m.begin()
	if err := fn(t); err != nil {
		t.Abort()
		return CommitResult{}, err
	}
	res, err := t.commit(q)
	if err != nil {
		return CommitResult{}, err
	}
	return res, nil
}
