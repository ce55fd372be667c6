// The tiered flush pipeline: how a store whose backend implements
// storage.Tiered persists settled history off the hot path.
//
// A flush never quiesces the store or re-serialises its whole content. It
// captures only the entities dirtied since the last flush, per shard, under
// that one shard's write lock (a bounded O(delta) pass), and hands the frozen
// capture to the tiered backend which serialises and fsyncs an immutable
// SSTable on the flushing goroutine — writers of other shards never notice,
// and writers of the captured shard resume as soon as its capture ends.
//
// The capture per dirty key is horizon-based: the settled horizon h is the
// highest LSN such that every record at or below it is settled (non-tentative
// or obsolete). The flush emits one summary record — the rollup through h —
// plus a full copy of every index record above h (live tentative promises and
// records newer than the last settled point, obsolete flags included). That
// split makes history rewrites crash-safe: a MarkObsolete mark in the WAL
// tail always finds its target after recovery, because a record that was
// still withdrawable was never summarised away.
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
	"cmp"
	"fmt"
	"slices"
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
}

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
	type dirtyKey struct {
		dirtyRef
		shard *shard
	}
	var keys []dirtyKey
	for _, s := range db.shards {
		s.mu.Lock()
		taken := s.dirty
		s.dirty = nil
		s.mu.Unlock()
		for _, d := range taken {
			keys = append(keys, dirtyKey{d, s})
		}
	}
	slices.SortFunc(keys, func(a, b dirtyKey) int {
		if c := cmp.Compare(a.key.Type, b.key.Type); c != 0 {
			return c
		}
		return cmp.Compare(a.key.ID, b.key.ID)
	})
	entries := make([]storage.WALRecord, 0, len(keys))
	var scratch []*entity.State // private rollups to recycle after the write
	// One key per lock hold: a writer to the key's shard waits at most one
	// entity's rollup, never the whole delta. An entry stays marked dirty
	// until its capture, so a record committed to a not-yet-captured key
	// rides into this table — with an LSN above the watermark, which recovery
	// tolerates (the LSN dedup against the replayed WAL tail) — while one
	// committed to an already-captured key lists it again for the next pass.
	for _, dk := range keys {
		s := dk.shard
		s.mu.Lock()
		dk.e.dirty = false
		var priv *entity.State
		var err error
		entries, priv, err = db.captureKeyLocked(s, dk.e, dk.key, entries)
		if err != nil {
			// Unknown type or unreadable cold summary: leave the key dirty
			// for the next pass rather than losing it.
			db.markDirtyLocked(s, dk.key, dk.e)
		}
		s.mu.Unlock()
		if priv != nil {
			scratch = append(scratch, priv)
		}
	}
	if len(entries) == 0 {
		return nil
	}
	err = db.tiered.FlushTable(entries, watermark, boundary)
	for _, st := range scratch {
		st.Recycle()
	}
	if err != nil {
		// Re-arm every captured key: the table never landed, so the next
		// pass must cover them again (union with keys dirtied since). Restore
		// the trigger counters too — zeroed at capture, they would otherwise
		// leave maybeTrigger waiting for an entire new trigger's worth of
		// commits before retrying (forever, on a now-idle store).
		f.bytes.Add(capBytes)
		db.sinceCkpt.Add(capRecs)
		for _, dk := range keys {
			dk.shard.mu.Lock()
			db.markDirtyLocked(dk.shard, dk.key, dk.e)
			dk.shard.mu.Unlock()
		}
		return fmt.Errorf("lsdb: flush: %w", err)
	}
	f.flushes.Add(1)
	f.evictCold(watermark)
	return nil
}

// captureKeyLocked appends one dirty entity's flush records to entries: the
// summary at its settled horizon plus full copies of every record above it.
// The caller holds the shard's write lock. The returned private state, when
// non-nil, is a scratch rollup owned by the flush and recycled after
// serialisation. On error entries comes back unchanged.
func (db *DB) captureKeyLocked(s *shard, e *entry, key entity.Key, entries []storage.WALRecord) ([]storage.WALRecord, *entity.State, error) {
	typ, ok := db.TypeOf(key.Type)
	if !ok {
		return entries, nil, fmt.Errorf("%w: %s", ErrUnknownType, key.Type)
	}
	// A dirty key can still be cold-resident when recovery installed both a
	// cold pointer and tail records; the capture needs its base in memory.
	if err := db.warmLocked(s, e, key); err != nil {
		return entries, nil, err
	}
	// Settled horizon: advance past every settled record (non-tentative, or
	// tentative but already withdrawn); the first live tentative promise
	// blocks it — that record must stay as detail so a later MarkObsolete in
	// the WAL tail still finds it after recovery. The flags are read from the
	// records' headers, in place.
	h := e.archivedAt
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
	var private *entity.State
	if h > 0 || e.archived != nil {
		sum := storage.WALRecord{Kind: storage.KindSummary, Key: key, Horizon: h}
		switch {
		case len(e.recs) == 0 && e.archived != nil:
			// Fully archived (post-Compact or legacy-recovered): the frozen
			// summary ships zero-copy.
			sum.Summary = e.archived
		case e.cache.present() && e.head == h:
			// The materialised current state *is* the rollup through h
			// when no unsettled records sit above it — zero-copy, which
			// lends it: the table is written after the lock is released.
			// The table holds it from here on, so the cache lets it go:
			// the next read or write rebuilds it from the resident
			// records (a replay SnapshotEvery bounds), and the hot cache
			// keeps only what was touched since the last flush.
			sum.Summary = e.cache.lend()
			e.cache.drop()
		default:
			private = s.rollupToLocked(e, key, typ, h)
			sum.Summary = private
		}
		entries = append(entries, sum)
	}
	for _, lsn := range e.recs {
		if lsn <= h {
			continue
		}
		if rec, ok := s.recordLocked(lsn); ok {
			entries = append(entries, rec)
		}
	}
	return entries, private, nil
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
			for _, e := range s.entries {
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
		for key, e := range s.entries {
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
