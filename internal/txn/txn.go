// Package txn implements the transaction models the paper contrasts:
//
//   - Solipsistic transactions (principle 2.10): each transaction acts on its
//     local view of the data, buffers operation descriptors and commits
//     unconditionally; the infrastructure resolves conflicts afterwards with
//     the same machinery it uses across replicas.
//   - Optimistic transactions: reads are validated at commit; a concurrent
//     writer forces a rollback (the "optimistic concurrency control which can
//     cause rollback" the paper mentions).
//   - Pessimistic transactions: two-phase locking over logical locks (waits,
//     timeouts, possibly deadlock-timeouts).
//   - A two-phase-commit coordinator for multi-entity, multi-unit
//     transactions, the baseline whose cost principle 2.5 argues against.
//
// Transactions target exactly one serialization unit (one lsdb.DB). A
// focused transaction additionally touches exactly one entity; the manager
// can enforce this (principle 2.5/2.6) or merely report it.
package txn

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/entity"
	"repro/internal/locks"
	"repro/internal/lsdb"
	"repro/internal/queue"
)

// Mode selects the concurrency-control discipline of a transaction.
type Mode int

// Concurrency-control modes.
const (
	// Solipsistic commits without any concurrency check (principle 2.10).
	Solipsistic Mode = iota
	// Optimistic validates read versions at commit and aborts on conflict.
	Optimistic
	// Pessimistic acquires exclusive logical locks before touching entities.
	Pessimistic
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case Solipsistic:
		return "solipsistic"
	case Optimistic:
		return "optimistic"
	case Pessimistic:
		return "pessimistic"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Common errors.
var (
	// ErrConflict is returned by optimistic commits whose read set changed.
	ErrConflict = errors.New("txn: optimistic conflict")
	// ErrLockTimeout is returned by pessimistic transactions that could not
	// obtain a lock in time.
	ErrLockTimeout = errors.New("txn: lock timeout")
	// ErrMultiEntity is returned when a focused transaction touches more
	// than one entity (principle 2.5 violation).
	ErrMultiEntity = errors.New("txn: transaction touches multiple entities")
	// ErrDone is returned when using a transaction after Commit or Abort.
	ErrDone = errors.New("txn: already finished")
	// ErrAborted is returned by the 2PC coordinator when any participant
	// failed to prepare.
	ErrAborted = errors.New("txn: aborted")
)

// Options configure a Manager.
type Options struct {
	// Node stamps transactions with the unit/replica identity.
	Node clock.NodeID
	// EnforceSingleEntity makes Commit fail with ErrMultiEntity when a
	// transaction wrote more than one entity (SOUPS discipline, 2.6).
	EnforceSingleEntity bool
	// LockTimeout bounds pessimistic lock waits (default 2s).
	LockTimeout time.Duration
	// LockTTL bounds how long commit-duration locks may be held (default 0:
	// forever, released at commit/abort).
	LockTTL time.Duration
}

// Manager creates transactions against one serialization unit.
type Manager struct {
	opts  Options
	db    *lsdb.DB
	hlc   *clock.HLC
	locks *locks.Manager
	ids   clock.Sequence
	// idPrefix is "<node>-txn-"; a transaction id is it plus a sequence number.
	idPrefix string

	stats counters
}

// counters is Stats as the commit path bumps it: no lock anywhere.
type counters struct {
	commits, aborts, conflicts, lockTimeouts atomic.Uint64
}

// Stats counts transaction outcomes.
type Stats struct {
	Commits      uint64
	Aborts       uint64
	Conflicts    uint64
	LockTimeouts uint64
}

// NewManager creates a transaction manager over db. The lock manager may be
// shared with the process engine so logical locks interoperate.
func NewManager(db *lsdb.DB, lm *locks.Manager, hlc *clock.HLC, opts Options) *Manager {
	if opts.LockTimeout <= 0 {
		opts.LockTimeout = 2 * time.Second
	}
	if lm == nil {
		lm = locks.NewManager(locks.Options{})
	}
	if hlc == nil {
		hlc = clock.NewHLC(opts.Node)
	}
	m := &Manager{opts: opts, db: db, hlc: hlc, locks: lm, idPrefix: string(opts.Node) + "-txn-"}
	m.resumeIDs()
	return m
}

// resumeIDs advances the id sequence past every transaction id this node name
// already issued into the store. Commit treats a duplicate transaction id as
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

// Locks returns the logical lock manager.
func (m *Manager) Locks() *locks.Manager { return m.locks }

// Stats returns a copy of the outcome counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Commits:      m.stats.commits.Load(),
		Aborts:       m.stats.aborts.Load(),
		Conflicts:    m.stats.conflicts.Load(),
		LockTimeouts: m.stats.lockTimeouts.Load(),
	}
}

// Txn is one transaction. Txns are not safe for concurrent use by multiple
// goroutines; each goroutine begins its own.
type Txn struct {
	m    *Manager
	id   string
	mode Mode
	// outbox stages emitted events; nil until the first Emit.
	outbox *queue.Outbox
	done   bool

	// reads captures the head LSN of every entity read, for optimistic
	// validation; nil until the first Read.
	reads map[entity.Key]uint64
	// writes buffers the operations per entity, in first-touch order. A
	// focused transaction writes one entity (principle 2.4), which fits
	// the inline room; more entities spill to the heap.
	writes []write
	room   [1]write
	// owner is the logical-lock owner for pessimistic mode.
	owner locks.Owner
}

// write is the buffered operations against one entity.
type write struct {
	key entity.Key
	ops []entity.Op
	// tentative marks the buffered ops as a tentative promise.
	tentative bool
}

// Begin starts a transaction in the given mode.
func (m *Manager) Begin(mode Mode) *Txn {
	t := new(Txn)
	m.BeginIn(t, mode)
	return t
}

// BeginIn starts a transaction in storage the caller supplies and reuses: a
// process worker runs one step at a time, so it begins every step's
// transaction in the same Txn. Whatever transaction t held before must be
// finished, and nothing may still use it — t is that transaction no longer.
func (m *Manager) BeginIn(t *Txn, mode Mode) {
	var buf [64]byte // on the stack: the id is the only allocation
	id := string(strconv.AppendUint(append(buf[:0], m.idPrefix...), m.ids.Next(), 10))
	reads := t.reads
	clear(reads)
	*t = Txn{m: m, id: id, mode: mode, owner: locks.Owner(id), reads: reads}
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

// Mode returns the concurrency-control mode.
func (t *Txn) Mode() Mode { return t.mode }

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
	if t.mode == Pessimistic {
		if err := t.lock(key); err != nil {
			return nil, err
		}
	}
	st, head, err := t.m.db.Current(key)
	if errors.Is(err, lsdb.ErrNotFound) {
		st, head = entity.NewState(key), 0
	} else if err != nil {
		return nil, err
	}
	if _, seen := t.reads[key]; !seen {
		if t.reads == nil {
			t.reads = map[entity.Key]uint64{}
		}
		t.reads[key] = head
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
	if t.mode == Pessimistic {
		if err := t.lock(key); err != nil {
			return err
		}
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
func (t *Txn) Emit(topic string, ev queue.Event) { t.EmitDelayed(topic, ev, 0) }

// EmitDelayed stages a delayed event.
func (t *Txn) EmitDelayed(topic string, ev queue.Event, delay time.Duration) {
	ev.TxnID = t.id
	if t.outbox == nil {
		t.outbox = queue.NewOutbox()
	}
	t.outbox.StageDelayed(topic, ev, delay)
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

func (t *Txn) lock(key entity.Key) error {
	res := locks.FineResource(key.Type, key.ID)
	err := t.m.locks.Acquire(t.owner, res, locks.Exclusive, t.m.opts.LockTTL, t.m.opts.LockTimeout)
	if err != nil {
		if errors.Is(err, locks.ErrTimeout) {
			t.m.stats.lockTimeouts.Add(1)
			return fmt.Errorf("%w: %s", ErrLockTimeout, res)
		}
		return err
	}
	return nil
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

// Commit finishes the transaction: it validates (per mode), appends one
// record per written entity to the LSDB, publishes staged events to q (if q
// is non-nil) and releases locks. On failure everything is discarded.
func (t *Txn) Commit(q *queue.Queue) (CommitResult, error) {
	var res CommitResult
	err := t.commit(q, &res)
	return res, err
}

// CommitDiscard is Commit for a caller with no use for the CommitResult —
// the process engine, once per step: the records written are not copied out
// of the log for it.
func (t *Txn) CommitDiscard(q *queue.Queue) error { return t.commit(q, nil) }

// commit is Commit's body. res, when non-nil, receives the result once the
// records are written (it stays zero on a failure before that); its Records
// are copies — the store's own records never leave it by reference.
func (t *Txn) commit(q *queue.Queue, res *CommitResult) error {
	if t.done {
		return ErrDone
	}
	t.done = true
	defer t.release()

	if t.m.opts.EnforceSingleEntity && len(t.writes) > 1 {
		t.fail()
		return fmt.Errorf("%w: %d entities", ErrMultiEntity, len(t.writes))
	}
	// Optimistic validation: every entity read must still be at the LSN we
	// saw. (Solipsists skip this entirely; pessimists are protected by
	// locks.)
	if t.mode == Optimistic {
		for key, sawLSN := range t.reads {
			_, head, err := t.m.db.Current(key)
			if errors.Is(err, lsdb.ErrNotFound) {
				head = 0
			} else if err != nil {
				t.fail()
				return err
			}
			if head != sawLSN {
				t.m.stats.conflicts.Add(1)
				t.m.stats.aborts.Add(1)
				t.discardStaged()
				return fmt.Errorf("%w: %s changed (read at %d, now %d)", ErrConflict, key, sawLSN, head)
			}
		}
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

// Abort discards all buffered work and releases locks.
func (t *Txn) Abort() {
	if t.done {
		return
	}
	t.done = true
	t.discardStaged()
	t.fail()
	t.release()
}

func (t *Txn) fail() { t.m.stats.aborts.Add(1) }

func (t *Txn) release() {
	if t.mode == Pessimistic {
		t.m.locks.ReleaseAll(t.owner)
	}
}

// Run executes fn inside a transaction and commits it, retrying optimistic
// conflicts up to retries times. It is the convenience most call sites use.
func (m *Manager) Run(mode Mode, q *queue.Queue, retries int, fn func(*Txn) error) (CommitResult, error) {
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		t := m.Begin(mode)
		if err := fn(t); err != nil {
			t.Abort()
			return CommitResult{}, err
		}
		res, err := t.Commit(q)
		if err == nil {
			return res, nil
		}
		lastErr = err
		if !errors.Is(err, ErrConflict) {
			return CommitResult{}, err
		}
	}
	return CommitResult{}, lastErr
}

// --- Two-phase commit baseline -------------------------------------------

// Participant is one serialization unit taking part in a distributed
// transaction.
type Participant struct {
	Manager *Manager
	// Delay simulates the network round trip to this participant for each
	// 2PC message (prepare, commit/abort). Zero means co-located.
	Delay time.Duration
}

// DistributedWrite is one entity write within a distributed transaction.
type DistributedWrite struct {
	Participant int // index into the coordinator's participant list
	Key         entity.Key
	Ops         []entity.Op
}

// Coordinator runs two-phase commit across participants. It exists as the
// baseline the paper argues against: "when entities from two different
// organizational units are accessed in the same transaction, a distributed
// (two-phase commit) transaction is required, which impacts performance and
// availability" (principle 2.5).
type Coordinator struct {
	participants []Participant
	ids          clock.Sequence

	mu    sync.Mutex
	stats CoordinatorStats
}

// CoordinatorStats counts distributed transaction outcomes.
type CoordinatorStats struct {
	Commits  uint64
	Aborts   uint64
	Prepares uint64
}

// NewCoordinator creates a 2PC coordinator over the participants.
func NewCoordinator(participants ...Participant) *Coordinator {
	return &Coordinator{participants: participants}
}

// Stats returns a copy of the outcome counters.
func (c *Coordinator) Stats() CoordinatorStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// prepared holds one participant's prepared (but not yet committed) local
// transaction.
type prepared struct {
	part  int
	txn   *Txn
	delay time.Duration
}

// Execute runs a distributed transaction over the writes: phase one acquires
// locks and validates at every participant (prepare), phase two commits
// everywhere or aborts everywhere. Every phase pays each participant's
// simulated network delay, serially for prepare ordering determinism and to
// model a coordinator that logs between messages.
func (c *Coordinator) Execute(writes []DistributedWrite, q *queue.Queue) error {
	if len(writes) == 0 {
		return nil
	}
	id := c.ids.Next()
	_ = id
	// Group writes per participant: one local transaction each.
	perPart := map[int][]DistributedWrite{}
	var order []int
	for _, w := range writes {
		if w.Participant < 0 || w.Participant >= len(c.participants) {
			return fmt.Errorf("txn: participant %d out of range", w.Participant)
		}
		if _, ok := perPart[w.Participant]; !ok {
			order = append(order, w.Participant)
		}
		perPart[w.Participant] = append(perPart[w.Participant], w)
	}
	sort.Ints(order)

	// Phase 1: prepare — start a pessimistic local transaction at each
	// participant, buffer the writes, acquire locks.
	var preps []prepared
	abort := func() {
		for _, p := range preps {
			if p.delay > 0 {
				time.Sleep(p.delay)
			}
			p.txn.Abort()
		}
		c.mu.Lock()
		c.stats.Aborts++
		c.mu.Unlock()
	}
	for _, pi := range order {
		part := c.participants[pi]
		if part.Delay > 0 {
			time.Sleep(part.Delay)
		}
		local := part.Manager.Begin(Pessimistic)
		ok := true
		for _, w := range perPart[pi] {
			if _, err := local.Read(w.Key); err != nil {
				ok = false
				break
			}
			if err := local.Update(w.Key, w.Ops...); err != nil {
				ok = false
				break
			}
		}
		c.mu.Lock()
		c.stats.Prepares++
		c.mu.Unlock()
		if !ok {
			local.Abort()
			abort()
			return fmt.Errorf("%w: participant %d failed to prepare", ErrAborted, pi)
		}
		preps = append(preps, prepared{part: pi, txn: local, delay: part.Delay})
	}

	// Phase 2: commit everywhere.
	for _, p := range preps {
		if p.delay > 0 {
			time.Sleep(p.delay)
		}
		if _, err := p.txn.Commit(q); err != nil {
			// A commit failure after successful prepares leaves the classic
			// 2PC in-doubt window; surface it loudly.
			abort()
			return fmt.Errorf("txn: 2pc commit failed at participant %d: %w", p.part, err)
		}
	}
	c.mu.Lock()
	c.stats.Commits++
	c.mu.Unlock()
	return nil
}
