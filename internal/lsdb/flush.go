// The tiered flush pipeline: how a store whose backend implements
// storage.Tiered persists settled history off the hot path.
//
// A flush never quiesces the store or re-serialises its whole content. It
// captures only the entities dirtied since the last flush, per shard, under
// that one shard's write lock (a bounded O(delta) pass), encodes the capture
// once into a buffer the pipeline keeps from pass to pass, and hands the
// encoded entries to the tiered backend, which frames and fsyncs an
// immutable SSTable on the flushing goroutine — writers of other shards
// never notice, and writers of the captured shard resume as soon as its
// capture ends.
//
// The capture per dirty key is horizon-based: the settled horizon h is the
// highest LSN such that every record at or below it is settled (non-tentative
// or obsolete). The flush emits one summary record — the rollup through h —
// plus a byte copy of every retained record above h (live tentative promises
// and records newer than the last settled point, obsolete flags included). That
// split makes withdrawals crash-safe: a settlement in the WAL tail (or an
// older build's obsolescence mark) always finds its promise after recovery,
// because a record that was still withdrawable was never summarised away. An entity whose every
// record was withdrawn, with no summary, gets none: it reads as absent, and
// its records stay detail.
//
// What stays resident after a flush: an entity's records, until Compact
// folds them into its archived summary, and a cached state only until the
// next flush that settles it — the capture hands a settled entity's cached
// state to the table and drops it from the cache, so the next read or write
// rebuilds it from the records (a replay SnapshotEvery bounds). After a flush
// lands, WAL segments up to the seal boundary are pruned (the tables now
// cover them) and archived summaries whose entities are fully settled and
// hold no cached state are evicted from memory, leaving a cold pointer: the
// next read warms the summary back in through the backend's bloom-guided
// newest-to-oldest table lookup.
package lsdb

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/entity"
	"repro/internal/storage"
)

// defaultFlushBytes is the byte-trigger default: roughly one SSTable per
// 4 MiB of committed record payload.
const defaultFlushBytes = 4 << 20

// flusher owns the flush pipeline of one tiered store.
type flusher struct {
	db *DB
	// mu serialises flush passes (and excludes exportCut and Close, which
	// need a stable capture state).
	mu sync.Mutex
	// busy gates the one-shot background goroutine; FlushNow bypasses it and
	// serialises on mu directly.
	busy atomic.Bool
	// stalled marks that the current backlog already counted a stall, so a
	// hot writer does not count one per append.
	stalled atomic.Bool

	bytes   atomic.Int64 // encoded bytes of the records committed since last flush
	flushes atomic.Uint64
	stalls  atomic.Uint64
	evicted atomic.Uint64

	// A pass's working set, guarded by mu and kept from one pass to the
	// next so a pass allocates only what outgrows the last: the dirty keys,
	// the table entries they expand to, buf, which holds every entry's
	// encoding — spans[i] is entries[i]'s — and the summaries the pass
	// rolled up itself, recycled once the table is written.
	keys    []dirtyKey
	order   []int32 // keys' indexes, in key order
	entries []storage.WALRecord
	spans   []span
	buf     []byte
	private []*entity.State
}

// dirtyKey is one key a flush pass captures: a shard's dirty-list entry and
// its shard.
type dirtyKey struct {
	dirtyRef
	shard *shard
}

// span is a byte range of flusher.buf.
type span struct{ start, end int }

func newFlusher(db *DB) *flusher { return &flusher{db: db} }

// flushBytes resolves the byte trigger (0 → default, negative → disabled).
func (f *flusher) flushBytes() int64 {
	if f.db.opts.FlushBytes == 0 {
		return defaultFlushBytes
	}
	if f.db.opts.FlushBytes < 0 {
		return 0
	}
	return f.db.opts.FlushBytes
}

// maybeTrigger starts a background flush when either trigger (bytes or
// record count) has fired. Called on the committing goroutine after every
// append, outside any lock.
func (f *flusher) maybeTrigger() {
	db := f.db
	byBytes := f.flushBytes() > 0 && f.bytes.Load() >= f.flushBytes()
	byRecs := db.opts.CheckpointEvery > 0 && db.sinceCkpt.Load() >= int64(db.opts.CheckpointEvery)
	if !byBytes && !byRecs {
		return
	}
	if !f.busy.CompareAndSwap(false, true) {
		// A flush is already running. If the backlog has run to twice the
		// trigger, the pipeline is stalling: writers outpace the flusher.
		if limit := f.flushBytes(); limit > 0 && f.bytes.Load() >= 2*limit &&
			f.stalled.CompareAndSwap(false, true) {
			f.stalls.Add(1)
		}
		return
	}
	go func() {
		defer f.busy.Store(false)
		if err := f.flushOnce(); err != nil {
			f.db.setBackendFailure(err)
		} else {
			f.db.clearBackendFailure()
		}
	}()
}

// FlushNow runs one flush pass synchronously — what Checkpoint does on a
// tiered store.
func (f *flusher) FlushNow() error {
	if err := f.flushOnce(); err != nil {
		f.db.setBackendFailure(err)
		return err
	}
	f.db.clearBackendFailure()
	return nil
}

// flushOnce is one complete flush pass: seal the WAL, capture every dirty
// entity shard by shard, write the SSTable, then prune and evict.
func (f *flusher) flushOnce() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	db := f.db
	if db.recovering {
		return nil
	}
	f.stalled.Store(false)
	// Seal first: every record already appended is now in a closed segment at
	// or below the boundary, and everything committed from here on lands in
	// the new active segment (above it). The watermark is read after the
	// seal, so it covers every LSN the sealed segments can hold.
	boundary, err := db.tiered.SealWAL()
	if err != nil {
		return fmt.Errorf("lsdb: flush seal: %w", err)
	}
	watermark := db.lsn.Peek()
	// Swap, not Store: the captured backlog is restored on a failed flush so
	// the triggers re-fire on the very next commit instead of waiting for a
	// whole fresh trigger's worth.
	capBytes := f.bytes.Swap(0)
	capRecs := db.sinceCkpt.Swap(0)

	// Take every shard's dirty list, then capture in key order: the table
	// writer requires key-grouped, key-ordered input, and sorting the keys up
	// front is far cheaper than sorting the records they expand to. (Type, ID)
	// ordering matches the table's composite-key ordering.
	keys := f.keys[:0]
	txnFloor := db.txnFloor
	for _, s := range db.shards {
		s.mu.Lock()
		for _, d := range s.dirty {
			keys = append(keys, dirtyKey{d, s})
		}
		s.dirty = kept(s.dirty)
		txnFloor = max(txnFloor, s.txnFloor)
		s.mu.Unlock()
	}
	// The sort moves indexes, not the keys: no pointer is written, so a
	// pass sorting while the collector runs pays no write barriers.
	order := slices.Grow(f.order[:0], len(keys))
	for i := range keys {
		order = append(order, int32(i))
	}
	slices.SortFunc(order, func(i, j int32) int {
		a, b := &keys[i].key, &keys[j].key
		if a.Type != b.Type {
			return strings.Compare(a.Type, b.Type)
		}
		return strings.Compare(a.ID, b.ID)
	})
	f.keys, f.order = keys, order
	// Most keys expand to one entry, a summary; an eighth more leaves room
	// for the next pass to be a little larger without growing the arrays.
	room := len(keys) + len(keys)/8
	f.entries, f.spans = slices.Grow(f.entries, room), slices.Grow(f.spans, room)
	// The records committed since the last pass took capBytes encoded; the
	// pass's encodings take about as much.
	f.buf = slices.Grow(f.buf, min(int(capBytes), maxKeptBuf))
	defer f.endPass()
	// A summary that does not encode fails the pass, but only once every
	// key is captured: a key left uncaptured would stay marked dirty without
	// being listed, and no later pass would take it.
	var encErr error
	// One key per lock hold: a writer to the key's shard waits at most one
	// entity's capture, never the whole delta. An entry stays marked dirty
	// until its capture, so a record committed to a not-yet-captured key
	// rides into this table — with an LSN above the watermark, which recovery
	// tolerates (the LSN dedup against the replayed WAL tail) — while one
	// committed to an already-captured key lists it again for the next pass.
	for _, i := range order {
		dk := &keys[i]
		s := dk.shard
		s.mu.Lock()
		dk.e.dirty = false
		n := len(f.entries)
		sum, private, err := f.captureKeyLocked(s, dk.e, dk.key)
		if err != nil {
			// Unknown type or unreadable cold summary: leave the key dirty
			// for the next pass rather than losing it.
			db.markDirtyLocked(s, dk.key, dk.e)
		}
		s.mu.Unlock()
		if sum != nil {
			// The summary is frozen or the pass's own, so it is encoded
			// with no lock held.
			if err := f.encodeSummary(n, sum); err != nil && encErr == nil {
				encErr = err
			}
			if private {
				f.private = append(f.private, sum)
			}
		}
	}
	if encErr != nil {
		return f.failed(keys, capBytes, capRecs, encErr)
	}
	if len(f.entries) == 0 {
		return nil
	}
	for i, sp := range f.spans {
		f.entries[i].Payload = f.buf[sp.start:sp.end]
	}
	// The table's ids leave the log with the segments it prunes.
	db.tiered.SetTxnFloor(txnFloor)
	if err := db.tiered.FlushTable(f.entries, watermark, boundary); err != nil {
		return f.failed(keys, capBytes, capRecs, err)
	}
	f.flushes.Add(1)
	f.evictCold(watermark)
	return nil
}

// failed undoes a pass whose table never landed: every captured key is
// re-armed, so the next pass covers them again (union with keys dirtied
// since), and the trigger counters zeroed at capture are restored — they
// would otherwise leave maybeTrigger waiting for an entire new trigger's
// worth of commits before retrying (forever, on a now-idle store).
func (f *flusher) failed(keys []dirtyKey, capBytes, capRecs int64, err error) error {
	db := f.db
	f.bytes.Add(capBytes)
	db.sinceCkpt.Add(capRecs)
	for _, dk := range keys {
		dk.shard.mu.Lock()
		db.markDirtyLocked(dk.shard, dk.key, dk.e)
		dk.shard.mu.Unlock()
	}
	return fmt.Errorf("lsdb: flush: %w", err)
}

// maxKeptPass bounds what a pass keeps for the next: arrays grown past this
// many entries, or an encoding buffer past maxKeptBuf bytes (a first
// checkpoint of a large store), are let go rather than held for passes
// that size.
const (
	maxKeptPass = 1 << 14
	maxKeptBuf  = 2 << 20
)

// kept returns v emptied for reuse, its elements cleared, or nil when it
// grew past maxKeptPass.
func kept[T any](v []T) []T {
	if cap(v) > maxKeptPass {
		return nil
	}
	clear(v)
	return v[:0]
}

// endPass recycles the pass's private rollups and lets go of what it
// referenced — keys, states, encodings — keeping the arrays for the next
// pass.
func (f *flusher) endPass() {
	for _, st := range f.private {
		st.Recycle()
	}
	f.private = kept(f.private)
	f.keys, f.order, f.entries, f.spans = kept(f.keys), kept(f.order), kept(f.entries), kept(f.spans)
	if f.buf = f.buf[:0]; cap(f.buf) > maxKeptBuf {
		f.buf = nil
	}
}

// captureKeyLocked appends one dirty entity's table entries to f.entries:
// the summary at its settled horizon, whose state it returns to be encoded
// after the lock is released — private when the pass rolled it up itself,
// to recycle once the table is written — then every record above the
// horizon, its bytes copied from the resident log into f.buf. The caller
// holds the shard's write lock. On error nothing is appended.
func (f *flusher) captureKeyLocked(s *shard, e *entry, key entity.Key) (sum *entity.State, private bool, err error) {
	db := f.db
	typ, ok := db.TypeOf(key.Type)
	if !ok {
		return nil, false, fmt.Errorf("%w: %s", ErrUnknownType, key.Type)
	}
	// A dirty key can still be cold-resident when recovery installed both a
	// cold pointer and tail records; the capture needs its base in memory.
	if err := db.warmLocked(s, e, key); err != nil {
		return nil, false, err
	}
	// Settled horizon: advance past every settled record (non-tentative, or
	// tentative but already withdrawn); the first live tentative promise
	// blocks it — that record must stay as detail so a later settlement in
	// the WAL tail still finds it after recovery. An entity that retains a
	// tentative record has the flags read from the records' headers, in
	// place; for any other every record is settled.
	h := e.archivedAt
	if !e.tentative {
		h = max(h, e.headLSN())
	}
	for _, lsn := range e.recs {
		if lsn <= h {
			continue
		}
		hdr, ok := s.headerLocked(lsn)
		if !ok {
			continue
		}
		if hdr.Tentative && !hdr.Obsolete {
			break
		}
		h = lsn
	}
	if !e.exists() {
		// Every record withdrawn and no summary: the entity reads as absent,
		// and a summary would make it readable, so its records stay detail
		// (Compact keeps them too).
		h = 0
	}
	if h > 0 || e.archived != nil {
		switch {
		case len(e.recs) == 0 && e.archived != nil:
			// Fully archived (post-Compact or legacy-recovered): the frozen
			// summary ships zero-copy.
			sum = e.archived
		case e.cache.present() && e.head == h:
			// The materialised current state *is* the rollup through h
			// when no unsettled records sit above it — zero-copy, which
			// lends it: it is encoded after the lock is released. The
			// table holds it from here on, so the cache lets it go: the
			// next read or write rebuilds it from the resident records (a
			// replay SnapshotEvery bounds), and the hot cache keeps only
			// what was touched since the last flush.
			sum = e.cache.lend()
			e.cache.drop()
		default:
			sum, private = s.rollupToLocked(e, key, typ, h), true
		}
		f.entries = append(f.entries, storage.WALRecord{Kind: storage.KindSummary, Key: key, Horizon: h})
		f.spans = append(f.spans, span{})
	}
	for _, lsn := range e.recs {
		if lsn <= h {
			continue
		}
		g, i := s.locateLocked(lsn)
		if g == nil {
			continue
		}
		start := len(f.buf)
		f.buf = append(f.buf, g.record(i)...)
		f.entries = append(f.entries, storage.WALRecord{Kind: storage.KindAppend, Key: key, LSN: lsn})
		f.spans = append(f.spans, span{start, len(f.buf)})
	}
	return sum, private, nil
}

// encodeSummary makes st the summary of entry f.entries[i] and encodes the
// entry into f.buf.
func (f *flusher) encodeSummary(i int, st *entity.State) error {
	rec := &f.entries[i]
	rec.Summary = st
	start := len(f.buf)
	buf, err := storage.EncodeRecord(f.buf, rec)
	if err != nil {
		return fmt.Errorf("summary of %s: %w", rec.Key, err)
	}
	f.buf, f.spans[i] = buf, span{start, len(buf)}
	return nil
}

// evictCold demotes fully settled archived summaries to cold pointers after
// a successful flush: their content is durable in the tables (flushed at or
// below the just-written watermark), their entities have no retained detail,
// and no hot cache references them. A compacted entity untouched since the
// flush therefore keeps only its pointer in memory. Only entries without
// retained records are ever taken, so an evicted entry has no exactly-once
// index left to lose.
func (f *flusher) evictCold(watermark uint64) {
	for _, s := range f.db.shards {
		s.mu.Lock()
		if s.archivedN > 0 {
			for _, e := range s.entries.all() {
				if e.archived == nil || e.dirty || len(e.recs) > 0 || e.cache.present() {
					continue
				}
				if e.archivedAt > watermark {
					continue // archived after the capture; not yet durable
				}
				e.cold, e.coldAt = true, e.archivedAt
				s.setArchivedLocked(e, nil)
				e.archivedAt = 0
				f.evicted.Add(1)
			}
		}
		s.mu.Unlock()
	}
}

// warmLocked pulls an evicted entity's summary back from the tiered store.
// The caller holds the shard's write lock. A no-op for entries that are not
// cold (every entry of a non-tiered store).
func (db *DB) warmLocked(s *shard, e *entry, key entity.Key) error {
	if !e.cold {
		return nil
	}
	rec, err := db.tiered.LookupSummary(key)
	if err != nil {
		return fmt.Errorf("lsdb: cold read %s: %w", key, err)
	}
	horizon := e.coldAt
	e.cold, e.coldAt = false, 0
	if rec == nil || rec.Summary == nil {
		return nil // pointer without a durable summary: treat as absent
	}
	s.setArchivedLocked(e, rec.Summary)
	e.archivedAt = max(e.archivedAt, horizon, rec.Horizon)
	db.coldReads.Add(1)
	return nil
}

// ensureWarm is warmLocked for read paths that hold no lock yet: it checks
// coldness under the read lock and escalates to the write lock only when a
// warm is actually needed.
func (db *DB) ensureWarm(s *shard, key entity.Key) error {
	if db.tiered == nil {
		return nil
	}
	s.mu.RLock()
	e := s.entry(key)
	isCold := e != nil && e.cold
	s.mu.RUnlock()
	if !isCold {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return db.warmLocked(s, e, key)
}

// warmAll warms every cold entity of every shard — exportCut needs the full
// archive in memory. The caller holds no shard lock.
func (db *DB) warmAll() error {
	if db.tiered == nil {
		return nil
	}
	for _, s := range db.shards {
		s.mu.Lock()
		for key, e := range s.entries.all() {
			if err := db.warmLocked(s, e, key); err != nil {
				s.mu.Unlock()
				return err
			}
		}
		s.mu.Unlock()
	}
	return nil
}

// FlushStats reports the tiered flush pipeline's health; the zero value when
// the store is not tiered.
type FlushStats struct {
	// Flushes counts completed flush passes; Failures counts failed
	// automatic flush passes; Stalls counts times the write path outran the
	// flusher by 2x the byte trigger.
	Flushes  uint64
	Failures uint64
	Stalls   uint64
	// PendingBytes is the encoded size of the records committed since the
	// last flush; Evicted and ColdReads count summary evictions and re-warms.
	PendingBytes int64
	Evicted      uint64
	ColdReads    uint64
	// Reason is the typed classification of the most recent failed pass
	// ("" while healthy).
	Reason string
}

// FlushStats returns the flush pipeline counters (zero without a tiered
// backend).
func (db *DB) FlushStats() FlushStats {
	if db.flush == nil {
		return FlushStats{}
	}
	db.ckptMu.Lock()
	reason := db.ckptReason
	db.ckptMu.Unlock()
	return FlushStats{
		Flushes:      db.flush.flushes.Load(),
		Failures:     db.ckptFailures.Load(),
		Stalls:       db.flush.stalls.Load(),
		PendingBytes: db.flush.bytes.Load(),
		Evicted:      db.flush.evicted.Load(),
		ColdReads:    db.coldReads.Load(),
		Reason:       reason,
	}
}

// Tiered exposes the tiered backend when one is attached (nil otherwise);
// health surfaces read its table/bloom/compaction statistics through it.
func (db *DB) Tiered() storage.Tiered { return db.tiered }
