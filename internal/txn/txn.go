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
	"strings"
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
	// idPrefix is "<node>-txn-"; a transaction id is it plus a sequence number.
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
	m := &Manager{opts: opts, db: db, hlc: hlc, idPrefix: string(opts.Node) + "-txn-"}
	m.resumeIDs()
	return m
}

// resumeIDs advances the id sequence past every transaction id this node name
// already issued into the store. A commit treats a duplicate transaction id as
// an at-least-once retry and silently skips the append, so a manager opened
// over a recovered log (durable restart, promoted standby) must not recycle
// ids — a fresh write wearing an old id would be dropped as its own replay.
func (m *Manager) resumeIDs() {
	var floor uint64
	for _, rec := range m.db.RecordsAfter(0) {
		n, ok := strings.CutPrefix(rec.TxnID, m.idPrefix)
		if !ok {
			continue
		}
		if v, err := strconv.ParseUint(n, 10, 64); err == nil && v > floor {
			floor = v
		}
	}
	m.ids.AdvanceTo(floor)
}

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

	// writes buffers the operations per entity, in first-touch order. A
	// focused transaction writes one entity (principle 2.4), which fits
	// the inline room; more entities spill to the heap.
	writes []write
	room   [1]write
}

// write is the buffered operations against one entity.
type write struct {
	key entity.Key
	ops []entity.Op
	// tentative marks the buffered ops as a tentative promise.
	tentative bool
}

// begin starts a transaction.
func (m *Manager) begin() *Txn {
	t := new(Txn)
	m.BeginIn(t)
	return t
}

// BeginIn starts a transaction in storage the caller supplies and reuses: a
// process worker runs one step at a time, so it begins every step's
// transaction in the same Txn. Whatever transaction t held before must be
// finished, and nothing may still use it — t is that transaction no longer.
func (m *Manager) BeginIn(t *Txn) {
	var buf [64]byte // on the stack: the id is the only allocation
	id := string(strconv.AppendUint(append(buf[:0], m.idPrefix...), m.ids.Next(), 10))
	*t = Txn{m: m, id: id}
	t.writes = t.room[:0]
}

// written returns the buffered write against key, or nil.
func (t *Txn) written(key entity.Key) *write {
	for i := range t.writes {
		if t.writes[i].key == key {
			return &t.writes[i]
		}
	}
	return nil
}

// ID returns the transaction identifier (also used for idempotence).
func (t *Txn) ID() string { return t.id }

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
	return t.update(key, false, ops...)
}

// UpdateTentative buffers operations whose effect is a tentative promise
// (principle 2.9); the kernel can later confirm or withdraw it.
func (t *Txn) UpdateTentative(key entity.Key, ops ...entity.Op) error {
	return t.update(key, true, ops...)
}

func (t *Txn) update(key entity.Key, tentative bool, ops ...entity.Op) error {
	if t.done {
		return ErrDone
	}
	if len(ops) == 0 {
		return nil
	}
	w := t.written(key)
	if w == nil {
		t.writes = append(t.writes, write{key: key})
		w = &t.writes[len(t.writes)-1]
	}
	if w.ops == nil {
		// Shared with the caller, as the store shares operations all the
		// way into its log; the clamp makes a later append copy.
		w.ops = ops[:len(ops):len(ops)]
	} else {
		w.ops = append(w.ops, ops...)
	}
	if tentative {
		w.tentative = true
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
	keys := make([]entity.Key, len(t.writes))
	for i := range t.writes {
		keys[i] = t.writes[i].key
	}
	return keys
}

// CommitResult describes a successful commit.
type CommitResult struct {
	TxnID string
	Stamp clock.Timestamp
	// Records lists the LSDB records written, one per entity.
	Records []lsdb.Record
	// Warnings carries managed-mode constraint violations to be handled by
	// follow-up process steps (principle 2.2).
	Warnings []entity.Warning
	// PublishedEvents lists the message ids of events flushed to the queue.
	PublishedEvents []uint64
}

// commit finishes the transaction: it appends one record per written entity
// to the LSDB and publishes staged events to q (if q is non-nil). On failure
// everything is discarded.
func (t *Txn) commit(q *queue.Queue) (CommitResult, error) {
	var res CommitResult
	err := t.commitInto(q, &res)
	return res, err
}

// CommitDiscard is commit for a caller with no use for the CommitResult —
// the process engine, once per step: the records written are not copied out
// of the log for it.
func (t *Txn) CommitDiscard(q *queue.Queue) error { return t.commitInto(q, nil) }

// commitInto is commit's body. res, when non-nil, receives the result once the
// records are written (it stays zero on a failure before that); its Records
// are copies — the store's own records never leave it by reference.
func (t *Txn) commitInto(q *queue.Queue, res *CommitResult) error {
	if t.done {
		return ErrDone
	}
	t.done = true

	if t.m.opts.EnforceSingleEntity && len(t.writes) > 1 {
		t.fail()
		return fmt.Errorf("%w: %d entities", ErrMultiEntity, len(t.writes))
	}
	stamp := t.m.hlc.Now()
	var records []lsdb.Record
	var warnings []entity.Warning
	for i := range t.writes {
		w := &t.writes[i]
		var ar lsdb.AppendResult
		var err error
		if w.tentative {
			ar, err = t.m.db.AppendTentative(w.key, w.ops, stamp, t.m.opts.Node, t.id)
		} else {
			ar, err = t.m.db.Append(w.key, w.ops, stamp, t.m.opts.Node, t.id)
		}
		if err != nil {
			// A duplicate txn id means this transaction already committed
			// (at-least-once retry); treat it as success without re-appending.
			if errors.Is(err, lsdb.ErrDuplicateTxn) {
				continue
			}
			t.fail()
			return err
		}
		if res != nil {
			records = append(records, ar.Record)
			warnings = append(warnings, ar.Warnings...)
		}
	}
	if res != nil {
		*res = CommitResult{TxnID: t.id, Stamp: stamp, Records: records, Warnings: warnings}
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
	return nil
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
