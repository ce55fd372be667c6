// Package lsdb implements the log-structured database sketched in section
// 3.1 of the paper: events (operation descriptors) are stored when they
// arrive, inserts are treated as events, and "what applications view as the
// current state of the database [is] a rollup aggregation of the contents of
// the LSDB, in the same way that rollforward using a log is an aggregation
// function".
//
// The database is main-memory resident (as the paper suggests), organised as
// an append-only sequence of records grouped into segments, each record
// encoded once as it is installed, so the collector never scans the log
// (segment.go). Two mechanisms keep that view cheap to serve:
//
//   - The store is split into lock-striped shards keyed by entity hash
//     (partition.KeyShard). Each shard owns its own mutex, log segments and
//     one map from entity key to that entity's entry (its record list,
//     exactly-once index, cached state, snapshot, archived summary and
//     tiering marks), so writers and readers of unrelated entities never
//     contend on one store-wide lock and an append hashes its key once.
//     LSNs stay globally unique and monotonic via a shared sequence.
//
//   - Each shard maintains a materialised current-state cache that is
//     updated incrementally on every append: the new record's operations are
//     applied to the cached rollup — in place while no reader, snapshot or
//     flush capture was ever lent it (cached.go), copy-on-write once one was
//     (O(delta), only the chunks the ops touch are copied) — and the result
//     is frozen and handed to readers directly: a cache hit is a map lookup,
//     no clone at all.
//     Callers own nothing: states returned by Current/Scan are frozen and
//     must be Thaw()ed before mutating. Anything that rewrites history —
//     a settlement, Compact, Load — invalidates the affected entry and the
//     next read falls back to a log rollup (bounded by per-entity
//     snapshots), then re-materialises.
//
// Compaction and summarisation bound growth while retaining the audit
// history principle 2.7 requires.
package lsdb

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apology"
	"repro/internal/clock"
	"repro/internal/entity"
	"repro/internal/partition"
	"repro/internal/storage"
)

// Common errors.
var (
	// ErrUnknownType is returned when appending to an entity type that was
	// never registered.
	ErrUnknownType = errors.New("lsdb: unknown entity type")
	// ErrNotFound is returned when reading an entity with no records.
	ErrNotFound = errors.New("lsdb: entity not found")
	// ErrDuplicateTxn is returned when a transaction id has already been
	// applied to the entity (idempotent re-delivery).
	ErrDuplicateTxn = errors.New("lsdb: duplicate transaction")
)

// Record is one immutable log entry: the operations one transaction applied
// to one entity, plus causal metadata. It is an alias of the storage layer's
// durable record type, so a commit cycle hands its records to a
// storage.Backend with zero conversion; the storage-only fields (Kind,
// Horizon, Summary) are always zero on records in the in-memory log, which
// holds them encoded in the same codec (segment.go) and hands out decoded
// copies.
type Record = storage.WALRecord

// Options configure a database instance.
type Options struct {
	// Node identifies this database (serialization unit / replica) in
	// version stamps.
	Node clock.NodeID
	// SnapshotEvery materialises a per-entity snapshot after this many
	// records for the entity. Snapshots bound the log replay a read must do
	// after the state cache was invalidated (or when the cache is disabled);
	// zero disables automatic snapshots, which experiment E9 uses as the
	// baseline.
	SnapshotEvery int
	// SegmentSize is the number of records per sealed segment within one
	// shard. Zero uses a default of 4096.
	SegmentSize int
	// Validation selects Strict or Managed application of operations during
	// rollup (principle 2.2).
	Validation entity.ValidationMode
	// Shards is the number of lock-striped shards the store is split into.
	// Zero uses a default of 8; 1 reproduces the old single-lock layout.
	Shards int
	// DisableStateCache turns off the materialised current-state cache so
	// every read recomputes the rollup from the log (plus snapshots). It
	// exists for the E9/E13 baselines and for memory-constrained deployments
	// that prefer recomputation over caching.
	DisableStateCache bool
	// GroupCommit and MaxBatch select nothing: every append commits through
	// one per-append cycle. They are declared only because the repository
	// benchmark (bench/) still sets them, and go with the next change to it.
	// No other code sets them.
	GroupCommit bool
	MaxBatch    int
	// Backend, when non-nil, is the durable storage engine under the store:
	// every commit cycle appends its records to it (one AppendBatch — one
	// framed batch write, one log force — per cycle), and Compact logs its
	// horizon as a mark. Open attaches the backend for writing only; to
	// rebuild a store from a backend's content use Recover. Commits are log-first: the backend
	// append happens before the cycle's records are installed in memory, so
	// a backend error is a clean refusal — nothing was committed, the
	// writers get a typed ErrDegraded, and the unit enters degraded
	// read-only mode (see degraded.go) until the backend heals or is
	// repaired.
	Backend storage.Backend
	// RearmAfter is how long a unit degraded by a retryable append error
	// (ENOSPC and kin) waits before probing the backend with the next real
	// append. Zero uses a one-second default. Permanent states (fsync
	// poisoning, corruption, fail-stop) never probe.
	RearmAfter time.Duration
	// CheckpointEvery, with a tiered backend (storage.Tiered), triggers a
	// background flush once roughly this many records have been committed
	// since the last one (see flush.go); a failure is remembered and
	// reported by FlushStats and BackendErr. Zero disables the record
	// trigger; Checkpoint can always be called explicitly. Other backends
	// never flush, so it does nothing for them.
	CheckpointEvery int
	// FlushBytes, with a tiered backend, additionally triggers a background
	// flush once the records committed since the last flush take this many
	// bytes encoded. Zero uses a 4 MiB default; negative
	// disables the byte trigger (the record-count trigger still applies).
	FlushBytes int64
}

const (
	defaultSegmentSize = 4096
	defaultShards      = 8
)

// snapshot is a cached rollup of one entity up to (and including) an LSN.
// The state is frozen and may be shared with the current-state cache; rollups
// that start from it copy-on-write.
type snapshot struct {
	lsn   uint64
	seq   uint64 // number of live records folded in
	state *entity.State
}

// txnSpill is how many retained records an entity's exactly-once index
// answers by scanning recs; an entity that retains more builds byTxn the
// first time an id has to be looked up.
const txnSpill = 8

// entry is everything a shard keeps about one entity. All fields are guarded
// by the shard lock: read under at least its read lock, written under its
// write lock. What a hot read needs comes first.
//
// recs doubles as the exactly-once index (ErrDuplicateTxn, settling a
// promise by its transaction id): a transaction id is remembered exactly as
// long as the record it wrote is retained, because it is read from that
// record's header in the log. What bounds the index is therefore what bounds the record list
// — Compact drops an entity's records, ids included, once they are all at or
// below its horizon; cold eviction only ever takes entries that retain none —
// and whatever rebuilds the list (loadRecord under Recover and Load)
// rebuilds the index with it.
type entry struct {
	// cache is the materialised current state, the full rollup as of head
	// (headLSN, kept here so a hot read stays off the record list). Empty
	// after anything that rewrites history (a settlement, Compact,
	// loadRecord); the next read rebuilds it.
	cache cachedState
	head  uint64

	// recs lists the LSNs of the retained records, ascending; the first two
	// live in recRoom, so most entities never allocate a list.
	recs    []uint64
	recRoom [2]uint64
	// hiPrefix and hiSeq are the high-water mark of the exactly-once index:
	// every retained id that splitTxnID reads as hiPrefix plus a number has a
	// number at or below hiSeq. hiPrefix is the prefix of the first such id
	// retained ("" before one is) — "<node>-txn-" for an entity its unit's
	// txn.Manager writes.
	hiPrefix string
	hiSeq    uint64
	// byTxn maps transaction id to LSN for txnLSN: built on the first lookup
	// of an entity retaining more than txnSpill records and kept up from then
	// on, nil again after Compact. Serial steps never build it.
	byTxn map[string]uint64
	// snap bounds the replay a rebuild of state has to do
	// (Options.SnapshotEvery).
	snap snapshot

	// archived is the summary of the records compacted away, folding in
	// everything through LSN archivedAt (the flush horizon resumes there).
	archived   *entity.State
	archivedAt uint64

	// Tiered-storage marks. dirty: mutated since the last flush capture (and
	// listed in shard.dirty, once). cold: evicted — the summary is
	// disk-resident with horizon coldAt, and a read or write warms it back
	// into archived on demand. tentative: a retained record was appended
	// tentative, so the flush reads the records' flags to find the settled
	// horizon; without one, every retained record is settled.
	dirty     bool
	cold      bool
	tentative bool
	// live counts the retained records neither withdrawn nor settlements.
	live   uint32
	coldAt uint64
}

// exists reports whether the entity has anything to read: a live record, an
// archived summary in memory, or one evicted to the tiered store. Withdrawn
// records alone (a promise broken on a first write) read as absent.
func (e *entry) exists() bool {
	return e.live > 0 || e.archived != nil || e.cold
}

// headLSN returns the LSN of the newest retained record (0 when none).
func (e *entry) headLSN() uint64 {
	if len(e.recs) == 0 {
		return 0
	}
	return e.recs[len(e.recs)-1]
}

// splitTxnID reads id as a non-empty prefix followed by a decimal number of
// at most 19 digits (so it cannot overflow) — the shape of the ids a
// txn.Manager mints, "<node>-txn-<seq>". Any other id is not ok.
func splitTxnID(id string) (prefix string, seq uint64, ok bool) {
	i := len(id)
	for i > 0 && id[i-1] >= '0' && id[i-1] <= '9' {
		i--
	}
	if i == 0 || i == len(id) || len(id)-i > 19 {
		return "", 0, false
	}
	for _, c := range []byte(id[i:]) {
		seq = seq*10 + uint64(c-'0')
	}
	return id[:i], seq, true
}

// aboveMark splits id and reports whether it is above the entity's high-water
// mark, and so the id of no retained record: the exactly-once answer for an
// id minted after every id applied so far, which is every id a serially
// written entity meets. Not above says nothing; txnLSN then looks the id up.
func (e *entry) aboveMark(id string) (prefix string, seq uint64, above bool) {
	prefix, seq, ok := splitTxnID(id)
	// Before any such id is retained (hiPrefix ""), no retained id splits at
	// all, so none equals one that does.
	return prefix, seq, ok && (e.hiPrefix == "" || (prefix == e.hiPrefix && seq > e.hiSeq))
}

// txnLSNLocked returns the LSN of the retained record of e that transaction
// id wrote: the exact lookup, for an id not above the mark (one minted earlier
// and committed later, a foreign or client-chosen one) and for a settlement.
// It reads the ids from the records' headers in the log. The caller holds the
// shard's write lock.
func (s *shard) txnLSNLocked(e *entry, id string) (uint64, bool) {
	if e.byTxn == nil && len(e.recs) > txnSpill {
		e.byTxn = make(map[string]uint64, 2*len(e.recs))
		for _, lsn := range e.recs {
			if h, ok := s.headerLocked(lsn); ok && len(h.TxnID) > 0 {
				e.byTxn[string(h.TxnID)] = lsn
			}
		}
	}
	if e.byTxn != nil {
		lsn, ok := e.byTxn[id]
		return lsn, ok
	}
	for i := len(e.recs) - 1; i >= 0; i-- {
		if h, ok := s.headerLocked(e.recs[i]); ok && string(h.TxnID) == id {
			return e.recs[i], true
		}
	}
	return 0, false
}

// addRecLocked lists a record of key's entry e that was just put in the
// shard's log; live is whether it counts towards e.live. The caller holds the
// shard's write lock.
func (s *shard) addRecLocked(key entity.Key, e *entry, lsn uint64, txn string, tentative, live bool) {
	if e.recs == nil {
		e.recs = e.recRoom[:0]
	}
	e.recs = append(e.recs, lsn)
	if tentative {
		e.tentative = true
		if txn != "" {
			s.promised[txn] = promiseRef{key: key, lsn: lsn}
		}
	}
	if live {
		e.live++
	}
	prefix, seq, above := e.aboveMark(txn)
	if seq > s.txnFloor && prefix == s.own {
		s.txnFloor = seq
	}
	if above {
		// Keep the prefix already held, or the shard's copy of it, rather
		// than one inside each new id, which would keep that whole id alive.
		if prefix != e.hiPrefix {
			if prefix != s.prefix {
				s.prefix = strings.Clone(prefix)
			}
			e.hiPrefix = s.prefix
		}
		e.hiSeq = seq
	}
	if e.byTxn != nil && txn != "" {
		e.byTxn[txn] = lsn
	}
}

// dropRecs forgets the entity's records (Compact removed them from the log)
// and everything derived from them.
func (e *entry) dropRecs() {
	e.recs, e.recRoom, e.byTxn, e.tentative, e.live = nil, [2]uint64{}, nil, false, 0
	e.hiPrefix, e.hiSeq = "", 0
	e.cache.drop()
	e.snap = snapshot{}
}

// dirtyRef is one entry of a shard's dirty list.
type dirtyRef struct {
	key entity.Key
	e   *entry
}

// shard is one lock stripe of the store: a self-contained log plus the
// entries of the entities that hash to it.
type shard struct {
	mu sync.RWMutex
	// The resident log (segment.go): sealed segments, then the active one
	// (sealed at SegmentSize records), all encoded; nextSlab sizes the next
	// segment's slab.
	sealed   []segment
	active   segment
	nextSlab int
	// cycle holds the records of the commit cycle in progress as Go values,
	// for the backend and the sink; it is cleared after each cycle
	// and reused. enc holds the cycle's record encoded, the one encoding
	// the backend frames and the resident log copies (writeCycleLocked).
	cycle []Record
	enc   []byte
	// prefix is the txn-id prefix an entry's high-water mark last took
	// (entry.hiPrefix), a copy the entries share.
	prefix string
	// own is "<Node>-txn-", and txnFloor the highest number after it among
	// the ids of the records this shard ever listed (DB.TxnFloor).
	own      string
	txnFloor uint64
	// promised finds the retained promise record a promise id names
	// (FindPromise, AllPromises): one entry per tentative record with an id
	// that addRecLocked lists, gone when Compact drops the record. It only
	// locates records; whether a promise is pending is read from its flags.
	promised map[string]promiseRef
	// entries holds one entry per entity. An entry that ever held a record
	// or a summary is never removed, so pointers to it stay good across
	// lock holds; only an entry a failed first append left empty is.
	entries map[entity.Key]*entry

	// Tiered-storage bookkeeping (untouched without a tiered backend): dirty
	// lists the entries mutated since the last flush capture, each once;
	// archivedN counts entries holding an archived summary, so eviction can
	// skip a shard that has none.
	dirty     []dirtyRef
	archivedN int

	// lookups and decodes, when a test sets them, count entry-map lookups
	// and records decoded from the log.
	lookups, decodes *atomic.Uint64
}

func newShard(own string) *shard {
	return &shard{entries: map[entity.Key]*entry{}, own: own, promised: map[string]promiseRef{}}
}

// entry returns the entity's entry, or nil. The caller holds the shard lock.
func (s *shard) entry(key entity.Key) *entry {
	if s.lookups != nil {
		s.lookups.Add(1)
	}
	return s.entries[key]
}

// ensure returns the entity's entry, creating an empty one for a key not
// seen before. The caller holds the shard's write lock, and must
// dropIfEmptyLocked the entry if it ends up putting nothing in it.
func (s *shard) ensure(key entity.Key) *entry {
	e := s.entry(key)
	if e == nil {
		e = &entry{}
		s.entries[key] = e
	}
	return e
}

// dropIfEmptyLocked removes an entry that ensure created for an append that
// then failed, so refused writes to unknown keys leave nothing behind.
func (s *shard) dropIfEmptyLocked(key entity.Key, e *entry) {
	if len(e.recs) == 0 && !e.exists() && s.entries[key] == e {
		delete(s.entries, key)
	}
}

// setArchivedLocked installs (or, with nil, removes) an entry's archived
// summary.
func (s *shard) setArchivedLocked(e *entry, st *entity.State) {
	switch {
	case e.archived == nil && st != nil:
		s.archivedN++
	case e.archived != nil && st == nil:
		s.archivedN--
	}
	e.archived = st
}

// markDirtyLocked lists an entry for the next flush capture. A no-op without
// a tiered backend.
func (db *DB) markDirtyLocked(s *shard, key entity.Key, e *entry) {
	if db.tiered != nil && !e.dirty {
		e.dirty = true
		s.dirty = append(s.dirty, dirtyRef{key: key, e: e})
	}
}

// DB is a log-structured database for one serialization unit. All methods
// are safe for concurrent use.
type DB struct {
	opts Options

	// types is the registered-type table, published copy-on-write: never
	// written once stored, so TypeOf takes no lock. typeMu serialises
	// RegisterType.
	typeMu sync.Mutex
	types  atomic.Pointer[map[string]*entity.Type]

	lsn    clock.Sequence // global LSN allocator, shared by all shards
	shards []*shard

	// logMu makes LSN allocation and the backend append of a commit cycle
	// atomic (log-first commit, see degraded.go): a failed append can then
	// roll its reservation back safely, keeping the log dense. Lock order:
	// shard.mu before logMu; logMu never wraps a shard lock.
	logMu sync.Mutex
	// repairMu serialises Repair calls (quarantine + refill spans two logMu
	// critical sections).
	repairMu sync.Mutex
	// degraded is the unit's degraded read-only state (nil: writes accepted).
	// Mutated under logMu; read lock-free by health surfaces.
	degraded       atomic.Pointer[degradedInfo]
	degradedEvents atomic.Uint64
	writesRefused  atomic.Uint64
	rearms         atomic.Uint64

	// commitSink is the sink SetCommitSink attaches (nil: none).
	commitSink func(records []Record) (wait func() error)
	// recovering suppresses backend writes while Recover replays the
	// backend's own content back into the store. Written only before the DB
	// is shared.
	recovering bool
	// sinceCkpt counts records committed since the last flush (the
	// CheckpointEvery trigger).
	sinceCkpt atomic.Int64
	ckptMu    sync.Mutex
	ckptErr   error
	// ckptFailures counts failed automatic flush passes; ckptReason is the
	// typed degraded classification of the most recent failure ("" when the
	// last pass succeeded), so health surfaces can tell a unit that flushes
	// cleanly from one that fails every pass.
	ckptFailures atomic.Uint64
	ckptReason   string // guarded by ckptMu

	// tiered is non-nil when Backend implements storage.Tiered; flush is the
	// off-hot-path flush pipeline, the only way settled history leaves the
	// log.
	tiered storage.Tiered
	flush  *flusher
	// coldReads counts reads that warmed a disk-resident summary back in.
	coldReads atomic.Uint64
	// txnFloor is the floor Recover read from a tiered backend (DB.TxnFloor).
	txnFloor uint64
}

// Open creates an empty database.
func Open(opts Options) *DB {
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = defaultSegmentSize
	}
	if opts.Shards <= 0 {
		opts.Shards = defaultShards
	}
	db := &DB{
		opts:   opts,
		shards: make([]*shard, opts.Shards),
	}
	db.types.Store(&map[string]*entity.Type{})
	own := string(opts.Node) + "-txn-"
	for i := range db.shards {
		db.shards[i] = newShard(own)
	}
	if t, ok := opts.Backend.(storage.Tiered); ok {
		db.tiered = t
		db.flush = newFlusher(db)
	}
	return db
}

// Node returns the node identity of this database.
func (db *DB) Node() clock.NodeID { return db.opts.Node }

// TxnFloor returns the highest n among the ids "<Node>-txn-<n>" (a
// txn.Manager's) the store ever committed or recovered, retained or not, so a
// manager opened over a recovered store issues no id twice.
func (db *DB) TxnFloor() uint64 {
	floor := db.txnFloor
	for _, s := range db.shards {
		s.mu.RLock()
		floor = max(floor, s.txnFloor)
		s.mu.RUnlock()
	}
	return floor
}

// shardFor returns the shard owning the key.
func (db *DB) shardFor(key entity.Key) *shard {
	return db.shards[partition.KeyShard(key, len(db.shards))]
}

// RegisterType makes an entity type known to the database. It must be called
// before appending records of that type.
func (db *DB) RegisterType(t *entity.Type) error {
	if err := t.Validate(); err != nil {
		return err
	}
	db.typeMu.Lock()
	defer db.typeMu.Unlock()
	next := maps.Clone(*db.types.Load())
	next[t.Name] = t
	db.types.Store(&next)
	return nil
}

// TypeOf returns the registered type with the given name. It takes no lock.
func (db *DB) TypeOf(name string) (*entity.Type, bool) {
	t, ok := (*db.types.Load())[name]
	return t, ok
}

// Types returns the names of all registered types, sorted.
func (db *DB) Types() []string {
	return slices.Sorted(maps.Keys(*db.types.Load()))
}

// AppendResult reports the outcome of an append. Record is a copy of the
// record as it was committed, LSN assigned; the log keeps its own, encoded
// (segment.go), so nothing the caller does to the copy reaches the log. Its
// Ops are the operations the append was given, after sanitization. The new
// current state is not part of the result: a caller that wants it asks
// Current, which lends it (cached.go).
type AppendResult struct {
	Record   Record
	Warnings []entity.Warning
}

// Append writes one record: the operations one transaction applied to one
// entity. It validates the operations against the current rollup (so a
// strict-mode violation is detected at write time) and assigns an LSN.
//
// If txnID is non-empty and has already been applied to this entity, Append
// returns ErrDuplicateTxn without writing; this gives at-least-once queue
// consumers idempotence (principles 2.4 and 3.1).
func (db *DB) Append(key entity.Key, ops []entity.Op, stamp clock.Timestamp, origin clock.NodeID, txnID string) (AppendResult, error) {
	res, err := db.append(key, ops, stamp, origin, txnID, false, 0)
	db.maybeCheckpoint()
	return res, err
}

// AppendPromise writes a record whose effects are tentative (principle 2.9):
// they count in rollups until a settlement breaks it or a mark withdraws it.
// With limit > 0 it is refused with apology.ErrPromiseLimit, writing
// nothing, when key already carries limit pending promises.
func (db *DB) AppendPromise(key entity.Key, ops []entity.Op, stamp clock.Timestamp, origin clock.NodeID, txnID string, limit int) (AppendResult, error) {
	res, err := db.append(key, ops, stamp, origin, txnID, true, limit)
	db.maybeCheckpoint()
	return res, err
}

func (db *DB) append(key entity.Key, ops []entity.Op, stamp clock.Timestamp, origin clock.NodeID, txnID string, tentative bool, limit int) (AppendResult, error) {
	typ, ok := db.TypeOf(key.Type)
	if !ok {
		return AppendResult{}, fmt.Errorf("%w: %s", ErrUnknownType, key.Type)
	}
	// The sealed log and the state cache share the operations with the
	// caller; sanitization rejects values that cannot be safely shared and
	// detaches container values from caller-owned memory. It runs before any
	// lock is touched, so a malformed op-set never reaches a commit cycle.
	ops, err := entity.SanitizeOps(ops)
	if err != nil {
		return AppendResult{}, fmt.Errorf("lsdb: %w", err)
	}
	res, wait, err := db.commitCycle(db.shardFor(key), typ, key, ops, stamp, origin, txnID, tentative, limit)
	if err != nil {
		return AppendResult{}, err
	}
	// The replication ack wait happens with no lock held: readers and other
	// writers of the shard proceed while this writer blocks on its acks.
	return res, waitCommitSink(wait)
}

// commitCycle is one append's commit cycle under the shard's write lock:
// validate and apply, log the record, install it, and run the commit sink's
// capture. It returns the sink's ack wait for the caller to run unlocked.
// The unlock is deferred, so a capture that panics leaves the shard usable:
// the panic reaches the writer, and the record stays committed.
func (db *DB) commitCycle(s *shard, typ *entity.Type, key entity.Key, ops []entity.Op, stamp clock.Timestamp, origin clock.NodeID, txnID string, tentative bool, limit int) (AppendResult, func() error, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.ensure(key)
	next, promise, warnings, err := db.applyForAppendLocked(s, e, typ, key, ops, txnID, tentative, limit)
	if err != nil {
		s.dropIfEmptyLocked(key, e)
		return AppendResult{}, nil, err
	}
	// Log-first: the record reaches the durable backend (which assigns the
	// cycle its LSN run atomically under logMu) before anything is installed
	// in memory. A refusal is clean — no state changed, the writer gets the
	// typed degraded error. See degraded.go.
	recs := append(s.cycle[:0], Record{
		Key:       key,
		Ops:       ops,
		Stamp:     stamp,
		Origin:    origin,
		TxnID:     txnID,
		Tentative: tentative,
	})
	if err := db.writeCycleLocked(s, recs); err != nil {
		next.Recycle()
		s.dropIfEmptyLocked(key, e)
		return AppendResult{}, nil, err
	}
	res := AppendResult{Record: recs[0], Warnings: warnings}
	if promise == 0 {
		db.commitAppendLocked(s, e, &recs[0], next)
	} else { // a settlement: listed, not live, and its promise settled
		s.addRecLocked(key, e, recs[0].LSN, txnID, tentative, false)
		db.markDirtyLocked(s, key, e)
		_, broken, _ := settles(ops)
		s.settleLocked(e, promise, !broken)
	}
	var wait func() error
	if db.commitSink != nil {
		wait = db.commitSink(recs)
	}
	s.endCycleLocked(recs)
	return res, wait, nil
}

// SetCommitSink attaches (or replaces) the commit sink, the attachment point
// for what follows the log: the kernel attaches one per unit once all the
// units' stores exist, which feeds the unit's aggregate maintainer and, when
// replication is on, WAL shipping. It must be called before the store is
// shared with writers; attaching mid-traffic races with committing shards.
//
// The sink's call itself (the capture phase) receives every append written
// to the durable log — one commit cycle per call, a settlement among them —
// in the order the backend does, under the same shard lock, so a sink that
// forwards to another log observes this one's order. It receives nothing
// else: a compaction horizon is this node's own housekeeping and goes to the
// local log only. Because the shard lock is held, the capture phase must be
// fast and must never block on I/O, sleep, or wait for the network: it
// snapshots the batch, hands it to the shipping machinery, and returns. A
// capture that panics releases the shard lock and the panic reaches the
// writer; the cycle's records stay committed. The returned wait function
// (nil when the mode needs no acknowledgement) is invoked by the store
// *after* the shard lock is released; its error reaches the writers of the
// cycle: a synchronous replication mode that could not gather its acks fails
// the append. Like a backend error that failure is post-install and
// therefore indeterminate — the records are committed locally and visible;
// only the replication guarantee is in doubt. Invoked concurrently from
// independently committing shards. A store returned by Recover gets its sink
// only afterwards, so the replayed records (shipped when first written) are
// never re-shipped. See docs/CONCURRENCY.md for the full sink contract.
func (db *DB) SetCommitSink(fn func(records []Record) (wait func() error)) {
	db.commitSink = fn
}

// applyForAppendLocked validates one append against the entity's entry and
// applies it to the current rollup, returning the new (not yet frozen) state,
// which the caller installs (commitAppendLocked) or, when the backend refuses
// the record, Recycles: a cached state taken to be written in place is out of
// the cache meanwhile. A settlement (promise.go) applies nothing and comes
// back with the LSN of its promise. The caller holds the shard's write lock.
func (db *DB) applyForAppendLocked(s *shard, e *entry, typ *entity.Type, key entity.Key, ops []entity.Op, txnID string, tentative bool, limit int) (*entity.State, uint64, []entity.Warning, error) {
	// A write to an evicted entity rolls up from its disk-resident summary.
	if err := db.warmLocked(s, e, key); err != nil {
		return nil, 0, nil, err
	}
	if _, _, fresh := e.aboveMark(txnID); txnID != "" && !fresh {
		if _, dup := s.txnLSNLocked(e, txnID); dup {
			return nil, 0, nil, fmt.Errorf("%w: %s on %s", ErrDuplicateTxn, txnID, key)
		}
	}
	if id, _, ok := settles(ops); ok {
		lsn, err := s.promiseLocked(e, key, id)
		return nil, lsn, nil, err
	} else if limit > 0 {
		if n := len(s.pendingLocked(nil, key, e)); n >= limit {
			return nil, 0, nil, fmt.Errorf("%w: %d pending on %s", apology.ErrPromiseLimit, n, key)
		}
	}
	// The cached rollup is the prior state. One nobody was lent is this
	// append's to write in place: no State, no field map. One that was lent
	// stays frozen and Apply copies-on-write, only the chunks the operations
	// touch (O(delta), not O(state size)). With none cached the rollup is
	// rebuilt from the log, and is as private.
	prior, private := e.cache.take()
	if prior == nil {
		prior, private = s.rollupLocked(e, key, typ), true
	}
	var next *entity.State
	var warnings []entity.Warning
	var err error
	if private {
		next = prior
		if warnings, err = entity.ApplyInPlace(typ, next, ops, db.opts.Validation); err != nil {
			next.Recycle()
		}
	} else {
		next, warnings, err = entity.Apply(typ, prior, ops, db.opts.Validation)
	}
	if err != nil {
		return nil, 0, nil, err
	}
	if tentative {
		next.Tentative = true
	}
	return next, 0, warnings, nil
}

// writeCycleLocked puts a commit cycle's record, recs[0], in the log, encoded
// once: into the shard's scratch with its LSN left out, outside logMu; then
// the durable backend (logAppend, which assigns the LSN, stamps it into the
// bytes and has the backend frame them); then the resident log, which copies
// them. The bytes are the shard's scratch, so the record's Payload is
// cleared before the record goes any further. Sanitized records always
// encode; one that does not is refused before it takes an LSN. recs is the
// shard's cycle scratch; on an error it is ended here, and nothing of the
// cycle is in memory. The caller holds the shard's write lock.
func (db *DB) writeCycleLocked(s *shard, recs []Record) error {
	enc, err := storage.EncodeUnstamped(s.enc[:0], &recs[0])
	if err == nil {
		s.enc, recs[0].Payload = enc, enc
		err = db.logAppend(recs)
	} else {
		err = fmt.Errorf("lsdb: %s: %w", recs[0].Key, err)
	}
	if err == nil {
		var n int64
		if n, err = s.installLocked(recs, db.opts.SegmentSize); err == nil && db.flush != nil {
			db.flush.bytes.Add(n)
		}
	}
	if err != nil {
		s.endCycleLocked(recs)
		return err
	}
	recs[0].Payload = nil
	return nil
}

// maxKeptEnc bounds the encoding scratch a shard keeps between cycles: one
// outsized record's is let go rather than held.
const maxKeptEnc = 64 << 10

// endCycleLocked clears a commit cycle's records, which the backend and the
// sink are done with, and keeps their array and the encoding scratch for
// the next cycle.
func (s *shard) endCycleLocked(recs []Record) {
	clear(recs)
	s.cycle = recs[:0]
	if cap(s.enc) > maxKeptEnc {
		s.enc = nil
	}
}

// commitAppendLocked installs one applied append whose record is already in
// the log with its LSN assigned: the record is listed in the entity's entry,
// and the frozen new state becomes the cached state and, every SnapshotEvery
// records, the snapshot fallback. The caller holds the shard's write lock.
func (db *DB) commitAppendLocked(s *shard, e *entry, rec *Record, next *entity.State) {
	s.addRecLocked(rec.Key, e, rec.LSN, rec.TxnID, rec.Tentative, true)
	db.markDirtyLocked(s, rec.Key, e)
	if db.opts.DisableStateCache {
		next.Freeze()
	} else {
		e.cache.install(next)
		e.head = rec.LSN
	}
	if db.opts.SnapshotEvery > 0 {
		e.snap.seq++
		if int(e.snap.seq)%db.opts.SnapshotEvery == 0 {
			// The snapshot shares the frozen state rather than cloning it,
			// which lends it: the append after this one copies.
			e.cache.lend()
			e.snap.lsn, e.snap.state = rec.LSN, next
		}
	}
}

// Current returns the rollup of an entity's records: its current state and
// the LSN of the latest record folded in. With the state cache enabled
// (default) a hit is a map lookup that hands out the frozen cached state
// directly — zero copies, independent of both history length and state
// width. The returned state is frozen: call Thaw before mutating it.
func (db *DB) Current(key entity.Key) (*entity.State, uint64, error) {
	typ, ok := db.TypeOf(key.Type)
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s", ErrUnknownType, key.Type)
	}
	s := db.shardFor(key)
	if db.opts.DisableStateCache {
		if err := db.ensureWarm(s, key); err != nil {
			return nil, 0, err
		}
		s.mu.RLock()
		defer s.mu.RUnlock()
		e := s.entry(key)
		if e == nil || !e.exists() {
			return nil, 0, fmt.Errorf("%w: %s", ErrNotFound, key)
		}
		return s.rollupLocked(e, key, typ).Freeze(), e.headLSN(), nil
	}
	s.mu.RLock()
	e := s.entry(key)
	if e != nil {
		if st := e.cache.lend(); st != nil {
			head := e.head
			s.mu.RUnlock()
			return st, head, nil
		}
	}
	if e == nil || !e.exists() {
		// Nonexistent entity: answer under the read lock so polling for a
		// key that is not there never escalates to the shard's write lock.
		s.mu.RUnlock()
		return nil, 0, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	s.mu.RUnlock()
	// Cache miss: rebuild the rollup under the write lock and re-materialise.
	// The entry existed, so it is still the entity's entry.
	s.mu.Lock()
	defer s.mu.Unlock()
	if !e.cache.present() { // else raced with another rebuild
		if err := db.warmLocked(s, e, key); err != nil {
			return nil, 0, err
		}
		if !e.exists() {
			return nil, 0, fmt.Errorf("%w: %s", ErrNotFound, key)
		}
		if e.rollupIsArchived() {
			// A cold read warms the summary from the tables; caching the
			// summary itself keeps one copy of it resident, not two.
			e.cache.installLent(e.archived)
		} else {
			e.cache.install(s.rollupLocked(e, key, typ))
		}
		e.head = e.headLSN()
	}
	return e.cache.lend(), e.head, nil
}

// Exists reports whether any live record (or archived summary, in memory or
// evicted to the tiered store) exists for key.
func (db *DB) Exists(key entity.Key) bool {
	s := db.shardFor(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	e := s.entry(key)
	return e != nil && e.exists()
}

// rollupLocked computes the current state of the entity by log replay,
// starting from the archived summary and/or snapshot when available. Callers
// hold at least a read lock on the shard. The returned state is freshly built
// and owned by the caller; it shares structure copy-on-write with the frozen
// snapshot or summary it started from.
func (s *shard) rollupLocked(e *entry, key entity.Key, typ *entity.Type) *entity.State {
	return s.rollupToLocked(e, key, typ, ^uint64(0))
}

// rollupIsArchived reports whether the entry's rollup is its archived summary
// unchanged: no snapshot supersedes it and no retained record lies above it.
func (e *entry) rollupIsArchived() bool {
	if e.archived == nil || (e.snap.state != nil && e.snap.lsn >= e.archivedAt) {
		return false
	}
	return len(e.recs) == 0 || e.headLSN() <= e.archivedAt
}

// rollupToLocked is the rollup bounded to records at or below limit; the
// flush capture builds its summary with it, through its settled horizon.
func (s *shard) rollupToLocked(e *entry, key entity.Key, typ *entity.Type, limit uint64) *entity.State {
	var base *entity.State
	// The archived summary folds in everything through archivedAt; retained
	// records at or below it (recovery can retain copies the summary already
	// covers) must not re-apply.
	startLSN := e.archivedAt
	if snap := e.snap; snap.state != nil && snap.lsn >= startLSN && snap.lsn <= limit {
		base, startLSN = snap.state.Clone(), snap.lsn
	} else if e.archived != nil {
		base = e.archived.Clone()
	} else {
		base = entity.NewState(key)
	}
	for _, lsn := range e.recs {
		if lsn <= startLSN {
			continue
		}
		if lsn > limit {
			break
		}
		rec, ok := s.recordLocked(lsn)
		if !ok || rec.Obsolete {
			continue
		}
		// Rollup always uses managed application; an error here means a
		// malformed operation kind, which Append would have rejected. The
		// record is skipped whole, so it is applied to a copy.
		next, _, err := entity.Apply(typ, base, rec.Ops, entity.Managed)
		if err != nil {
			continue
		}
		if rec.Tentative {
			next.Tentative = true
		}
		base = next
	}
	return base
}

// AsOf returns the state of key as of the given timestamp: the rollup of all
// non-obsolete records stamped at or before ts.
func (db *DB) AsOf(key entity.Key, ts clock.Timestamp) (*entity.State, error) {
	typ, ok := db.TypeOf(key.Type)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownType, key.Type)
	}
	s := db.shardFor(key)
	if err := db.ensureWarm(s, key); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	e := s.entry(key)
	if e == nil || len(e.recs) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	state := entity.NewState(key)
	if e.archived != nil {
		state = e.archived.Clone()
	}
	found := e.archived != nil
	for _, lsn := range e.recs {
		if lsn <= e.archivedAt {
			continue // already folded into the archived summary
		}
		rec, ok := s.recordLocked(lsn)
		if !ok || rec.Obsolete {
			continue
		}
		if rec.Stamp.Compare(ts) == clock.After {
			continue
		}
		next, _, err := entity.Apply(typ, state, rec.Ops, entity.Managed)
		if err != nil {
			continue
		}
		if rec.Tentative {
			next.Tentative = true
		}
		state = next
		found = true
	}
	if !found {
		return nil, fmt.Errorf("%w: %s as of %s", ErrNotFound, key, ts)
	}
	return state.Freeze(), nil
}

// History reconstructs the full insert-only version chain of key, including
// obsolete versions (principle 2.7: the past is never discarded, only
// summarised).
func (db *DB) History(key entity.Key) (*entity.History, error) {
	typ, ok := db.TypeOf(key.Type)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownType, key.Type)
	}
	s := db.shardFor(key)
	if err := db.ensureWarm(s, key); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	e := s.entry(key)
	if e == nil || (len(e.recs) == 0 && e.archived == nil) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	h := entity.NewHistory(key)
	state := entity.NewState(key)
	if e.archived != nil {
		state = e.archived.Clone()
	}
	var seq uint64
	for _, lsn := range e.recs {
		if lsn <= e.archivedAt {
			continue // already folded into the archived summary
		}
		rec, ok := s.recordLocked(lsn)
		if !ok {
			continue
		}
		seq++
		v := &entity.Version{
			Key:       key,
			Seq:       seq,
			Ops:       rec.Ops,
			Stamp:     rec.Stamp,
			Origin:    rec.Origin,
			TxnID:     rec.TxnID,
			Tentative: rec.Tentative,
			Obsolete:  rec.Obsolete,
		}
		if !rec.Obsolete {
			next, _, err := entity.Apply(typ, state, rec.Ops, entity.Managed)
			if err == nil {
				if rec.Tentative {
					next.Tentative = true
				}
				state = next.Freeze()
			}
		}
		v.State = state
		h.Append(v)
	}
	return h, nil
}

// RecordsAfterN returns the first limit records with LSN strictly greater
// than after, in LSN order across all shards; limit <= 0 means all of them.
// Streaming catch-up serves chunk-sized tails this way so one response
// never carries the whole log: a chunk costs a binary search per shard and
// the decode of the records it returns, wherever in the log it starts.
//
// All shard locks are held together (always in shard order — this is the
// only multi-shard lock site) so the result is one atomic cut of the log:
// shard-at-a-time reads could return a higher LSN while missing a lower one
// committed to an already-released shard, and watermark-based consumers
// would then skip that record forever.
func (db *DB) RecordsAfterN(after uint64, limit int) []Record {
	for _, s := range db.shards {
		s.mu.RLock()
	}
	defer func() {
		for _, s := range db.shards {
			s.mu.RUnlock()
		}
	}()
	return db.recordsAfterLocked(after, limit)
}

// recordsAfterLocked is RecordsAfterN's body; the caller holds (at least) a
// read lock on every shard, so the result is one atomic cut of the log. Each
// shard's log is one LSN-ascending run: a cursor per shard starts at its
// first record above after, and a k-way merge of the cursors decodes records
// in log order until limit of them are out.
func (db *DB) recordsAfterLocked(after uint64, limit int) []Record {
	cursors := make([]logCursor, 0, len(db.shards))
	total := 0
	for _, s := range db.shards {
		if c := s.cursorAfterLocked(after); c.valid() {
			cursors = append(cursors, c)
			total += c.remaining()
		}
	}
	if limit > 0 {
		total = min(total, limit)
	}
	out := make([]Record, 0, total)
	for len(out) < total {
		low := 0
		for k := 1; k < len(cursors); k++ {
			if cursors[k].lsn() < cursors[low].lsn() {
				low = k
			}
		}
		c := &cursors[low]
		out = append(out, c.s.decodeLocked(c.segment(), c.i))
		if c.next(); !c.valid() {
			cursors[low] = cursors[len(cursors)-1]
			cursors = cursors[:len(cursors)-1]
		}
	}
	return out
}

// RecordsFor returns all records of one entity in LSN order.
func (db *DB) RecordsFor(key entity.Key) []Record {
	s := db.shardFor(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	e := s.entry(key)
	if e == nil {
		return nil
	}
	var out []Record
	for _, lsn := range e.recs {
		if rec, ok := s.recordLocked(lsn); ok {
			out = append(out, rec)
		}
	}
	return out
}

// HeadLSN returns the LSN of the most recent record (0 when empty).
func (db *DB) HeadLSN() uint64 {
	return db.lsn.Peek()
}

// Len returns the number of records currently retained in the log.
func (db *DB) Len() int {
	n := 0
	for _, s := range db.shards {
		s.mu.RLock()
		n += s.lenLocked()
		s.mu.RUnlock()
	}
	return n
}

// KeysOfType returns the keys of every existing entity of one type, sorted
// by ID.
func (db *DB) KeysOfType(typeName string) []entity.Key {
	var out []entity.Key
	for _, s := range db.shards {
		s.mu.RLock()
		for k, e := range s.entries {
			if k.Type == typeName && e.exists() {
				out = append(out, k)
			}
		}
		s.mu.RUnlock()
	}
	slices.SortFunc(out, func(a, b entity.Key) int { return strings.Compare(a.ID, b.ID) })
	return out
}

// Scan calls fn with the current state of every entity of the given type.
// Scanning stops early if fn returns false. Each state is an internally
// consistent rollup of its entity, handed out frozen and zero-copy from the
// state cache — fn must Thaw a state before mutating it. The scan as a whole
// is not a global snapshot — entities on other shards may change while one
// is visited (subjective consistency, principle 2.1).
func (db *DB) Scan(typeName string, fn func(*entity.State) bool) error {
	if _, ok := db.TypeOf(typeName); !ok {
		return fmt.Errorf("%w: %s", ErrUnknownType, typeName)
	}
	for _, k := range db.KeysOfType(typeName) {
		st, _, err := db.Current(k)
		if err != nil {
			if errors.Is(err, ErrNotFound) {
				continue
			}
			return err
		}
		if !fn(st) {
			return nil
		}
	}
	return nil
}

// Compact summarises and drops detail records up to and including beforeLSN.
// For every entity all of whose records fall at or before the horizon, the
// current rollup is stored as an archived summary (the paper's
// "summarization and archival functionality") and the detail records are
// removed. Entities with newer activity keep all their records so their
// audit trail stays complete. So do two kinds of entity the flush does not
// summarise either: one holding a pending promise, which its settlement
// must still find, and one that exists through none of its records (every
// one withdrawn, no summary), which a summary would make readable. Shards
// compact independently. Returns how many entities were summarised.
func (db *DB) Compact(beforeLSN uint64) int {
	summarised := 0
	for _, s := range db.shards {
		s.mu.Lock()
		var drop []*entry
		var gone []uint64 // the LSNs of their records
		for key, e := range s.entries {
			if len(e.recs) == 0 || !e.exists() || len(s.pendingLocked(nil, key, e)) > 0 {
				continue
			}
			if e.headLSN() <= beforeLSN {
				typ, ok := db.TypeOf(key.Type)
				if !ok {
					continue
				}
				if err := db.warmLocked(s, e, key); err != nil {
					continue // summary unreadable; keep the detail records
				}
				s.setArchivedLocked(e, s.rollupLocked(e, key, typ).Freeze())
				e.archivedAt = e.headLSN()
				db.markDirtyLocked(s, key, e)
				drop = append(drop, e)
				gone = append(gone, e.recs...)
				summarised++
			}
		}
		if len(drop) > 0 {
			// Only the kept records' bytes are copied (segment.go).
			slices.Sort(gone)
			s.dropLocked(gone)
			maps.DeleteFunc(s.promised, func(_ string, ref promiseRef) bool {
				g, _ := s.locateLocked(ref.lsn)
				return g == nil // a promise record just dropped
			})
			for _, e := range drop {
				// The records are gone, and the materialised state would now
				// shadow the archived summary: the next read rebuilds from
				// the summary.
				e.dropRecs()
			}
		}
		s.mu.Unlock()
	}
	// Log the horizon so recovery re-runs the compaction at this point in
	// the log. Appends racing with the marker can make replay keep entities
	// the live store archived (or archive ones it kept) — the rollup states
	// are identical either way, only the summarised/retained split differs.
	// The horizon is this node's own housekeeping, like the tiered flush: it
	// goes to the local log only, never to the commit sink, so a standby
	// compacts (or not) on its own schedule.
	if err := db.logMark(Record{Kind: storage.KindCompact, Horizon: beforeLSN}); err != nil {
		// The in-memory compaction already happened; a refused mark is
		// remembered rather than returned (replay would keep entities
		// the live store archived — the rollup states are identical).
		db.setBackendErr(fmt.Errorf("lsdb: backend compact mark failed: %w", err))
	}
	return summarised
}

// --- Durable storage ---------------------------------------------------------

// Checkpoint makes everything committed so far durable. With a tiered
// backend it also bounds recovery: one flush pass runs synchronously, settled
// state lands in a table and the WAL segments the table covers are pruned, so
// a restart reads the newest tables plus the log tail. Any other backend is
// forced (Backend.Sync) and its log stays the whole of recovery. Writers are
// never quiesced. A no-op without a Backend.
func (db *DB) Checkpoint() error {
	switch {
	case db.opts.Backend == nil:
		return nil
	case db.flush != nil:
		return db.flush.FlushNow()
	}
	return db.opts.Backend.Sync()
}

// maybeCheckpoint arms a background flush once one of a tiered backend's
// triggers has fired. Called on the committing goroutine after every append,
// outside any lock.
func (db *DB) maybeCheckpoint() {
	if db.flush != nil {
		db.flush.maybeTrigger()
	}
}

// setBackendErr remembers a background backend failure (automatic flush,
// compaction mark) for BackendErr.
func (db *DB) setBackendErr(err error) {
	db.ckptMu.Lock()
	db.ckptErr = err
	db.ckptMu.Unlock()
}

// setBackendFailure records a failed automatic persistence pass: the error
// for BackendErr, a failure count, and the typed degraded classification as
// a breadcrumb for health surfaces.
func (db *DB) setBackendFailure(err error) {
	reason, _ := classifyStorageErr(err)
	db.ckptFailures.Add(1)
	db.ckptMu.Lock()
	db.ckptErr = err
	db.ckptReason = reason
	db.ckptMu.Unlock()
}

// clearBackendFailure clears the breadcrumb after a successful pass (the
// failure count is cumulative and stays).
func (db *DB) clearBackendFailure() {
	db.ckptMu.Lock()
	db.ckptReason = ""
	db.ckptErr = nil
	db.ckptMu.Unlock()
}

// BackendErr returns the most recent background backend failure — an
// automatic flush or a compaction mark that could not be logged — or
// nil. Foreground backend failures are returned from the failing call
// directly.
func (db *DB) BackendErr() error {
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	return db.ckptErr
}

// Sync forces everything committed so far to the backend's stable storage.
// A no-op without a Backend.
func (db *DB) Sync() error {
	if db.opts.Backend == nil {
		return nil
	}
	return db.opts.Backend.Sync()
}

// Close flushes and closes the backend. The in-memory store remains
// readable; further appends will fail against the closed backend. A no-op
// without a Backend.
func (db *DB) Close() error {
	if db.opts.Backend == nil {
		return nil
	}
	if db.flush != nil {
		// Wait out any in-flight background flush so the backend is not
		// closed under it (a clean shutdown also leaves the WAL tail as
		// short as the last flush made it).
		db.flush.mu.Lock()
		defer db.flush.mu.Unlock()
	}
	return db.opts.Backend.Close()
}
