// Persistence for the log-structured store.
//
// One codec serialises the log: the binary record codec of internal/storage,
// length-prefixed, CRC-framed and exact by construction. It backs the
// durable write path and recovery, and every copy of the log that leaves
// the process — Save/Load here, the kernel's backup/restore streams and the
// replication wire all carry the frames the WAL writes (storage.StreamWriter).
//
// Recovery (Recover) rebuilds a store from a storage.Backend: a tiered
// backend's table summaries arrive as cold pointers and their detail records
// stream straight in, the WAL tail is replayed on top, and marks (compaction
// horizons, and the obsolescence marks older builds wrote) are re-applied in
// log order.
package lsdb

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"repro/internal/entity"
	"repro/internal/storage"
)

// exportCut returns one atomic cut of the store: every archived summary as
// a KindSummary record (sorted by key), then every retained record in
// global LSN order, read under a single all-shard lock window. Atomicity
// matters: read in two windows, a concurrent Compact could move an entity
// from the record set into the archive between them and the entity would
// appear in neither. The states are frozen and shared; do not mutate them.
func (db *DB) exportCut() []Record {
	if db.flush != nil {
		// A concurrent flush could evict a summary between this cut's two
		// halves; excluding it (and warming every cold summary back in
		// first) keeps the cut complete.
		db.flush.mu.Lock()
		defer db.flush.mu.Unlock()
		db.warmAll()
	}
	for _, s := range db.shards {
		s.mu.RLock()
	}
	defer func() {
		for _, s := range db.shards {
			s.mu.RUnlock()
		}
	}()
	var cut []Record
	for _, s := range db.shards {
		cut = s.summariesLocked(cut)
	}
	return append(sortSummaries(cut), db.recordsAfterLocked(0, 0)...)
}

// summariesLocked appends the shard's archived summaries to out as
// KindSummary records, in no order. The caller holds the shard lock.
func (s *shard) summariesLocked(out []Record) []Record {
	if s.archivedN == 0 {
		return out
	}
	for k, e := range s.entries {
		if e.archived != nil {
			out = append(out, Record{Kind: storage.KindSummary, Key: k, Summary: e.archived})
		}
	}
	return out
}

// sortSummaries orders summaries by key, so identical stores export
// identical streams.
func sortSummaries(sums []Record) []Record {
	sort.Slice(sums, func(i, j int) bool { return sums[i].Key.String() < sums[j].Key.String() })
	return sums
}

// restoreSummary installs an archived summary through the bulk-load path
// (ReadCut uses it; normal archival happens via Compact). The state is
// frozen if it was not already.
func (db *DB) restoreSummary(key entity.Key, st *entity.State) {
	s := db.shardFor(key)
	s.mu.Lock()
	e := s.ensure(key)
	s.setArchivedLocked(e, st.Freeze())
	e.cache.drop()
	e.cold, e.coldAt = false, 0
	db.markDirtyLocked(s, key, e)
	s.mu.Unlock()
}

// tagCount is the control tag of a cut's first frame: how many record
// frames follow.
const tagCount = 'N'

// Save writes one atomic cut of the store (exportCut) as a frame stream: a
// count, the archived summaries, every retained record in global LSN order
// (so Load rebuilds per-shard ordering for any shard count), then the
// trailer. Save is the portable export path — durable deployments use a
// storage.Backend instead (Options.Backend, Recover).
func (db *DB) Save(w io.Writer) error {
	sw := storage.NewStreamWriter(w)
	if err := db.WriteCut(sw); err != nil {
		return err
	}
	if err := sw.Close(); err != nil {
		return fmt.Errorf("lsdb: save: %w", err)
	}
	return nil
}

// WriteCut appends one atomic cut of the store to a frame stream, as Save
// lays it out; the kernel's backup writes one per unit.
func (db *DB) WriteCut(sw *storage.StreamWriter) error {
	cut := db.exportCut()
	err := sw.Control(tagCount, nil, uint64(len(cut)))
	for i := 0; err == nil && i < len(cut); i++ {
		err = sw.Record(&cut[i])
	}
	if err != nil {
		return fmt.Errorf("lsdb: save: %w", err)
	}
	return nil
}

// Load installs a stream written by Save into the database, which must be
// freshly opened with the same entity types registered. Loaded records
// invalidate any materialised state for their entity; reads after Load
// rebuild from the log.
func (db *DB) Load(r io.Reader) error {
	sr := storage.NewStreamReader(r)
	if _, err := db.ReadCut(sr); err != nil {
		return err
	}
	if err := sr.Close(); err != nil {
		return fmt.Errorf("lsdb: load: %w", err)
	}
	return nil
}

// ReadCut installs one cut from a frame stream, as Load does, and returns
// how many records (summaries aside) it installed.
func (db *DB) ReadCut(sr *storage.StreamReader) (int, error) {
	var n uint64
	if _, err := sr.Control(tagCount, &n); err != nil {
		return 0, fmt.Errorf("lsdb: load: %w", err)
	}
	records := 0
	for range n {
		rec, err := sr.Record()
		switch {
		case err == io.EOF:
			err = io.ErrUnexpectedEOF // the cut's count is not met
		case err != nil:
		case rec.Kind == storage.KindSummary:
			db.restoreSummary(rec.Key, rec.Summary)
		case rec.Kind == storage.KindAppend:
			err = db.loadRecord(rec)
			records++
		default:
			err = fmt.Errorf("record kind %d in a cut", rec.Kind)
		}
		if err != nil {
			return 0, fmt.Errorf("lsdb: load: %w", err)
		}
	}
	return records, nil
}

// loadRecord installs one already-sealed record through the bulk-load path:
// no validation or state application, straight into the owning shard's log
// and indexes. Records must arrive in ascending LSN order per shard (global
// LSN order, as Save/Replay produce, satisfies this for every shard count).
// The LSN sequence advances past the record so later appends never collide.
// The record goes in as an append whatever its Kind says. The one error is a
// record whose values cannot be encoded, which no decoder of this package or
// of storage produces.
func (db *DB) loadRecord(rec Record) error {
	rec.Kind = storage.KindAppend
	s := db.shardFor(rec.Key)
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := append(s.cycle[:0], rec)
	_, err := s.installLocked(recs, db.opts.SegmentSize)
	s.endCycleLocked(recs)
	if err != nil {
		return err
	}
	e := s.ensure(rec.Key)
	id, broken, isSettlement := settles(rec.Ops)
	s.addRecLocked(rec.Key, e, rec.LSN, rec.TxnID, rec.Tentative, !rec.Obsolete && !isSettlement)
	if isSettlement {
		// Replay settles the promise again, if it is still pending here.
		if lsn, err := s.promiseLocked(e, rec.Key, id); err == nil {
			s.settleLocked(e, lsn, !broken)
		}
	}
	e.cache.drop()
	db.markDirtyLocked(s, rec.Key, e)
	db.lsn.AdvanceTo(rec.LSN)
	return nil
}

// --- Recovery ----------------------------------------------------------------

// Recover opens a database and rebuilds it from the backend in opts.Backend:
// with a tiered backend, the newest tables' summaries and detail plus only
// the WAL segments written after the last flush — not the full history. The
// given entity types are registered before replay (compaction marks re-run
// rollups, which need them). After Recover returns, the store serves reads
// and writes exactly as the crashed instance did: byte-identical entity
// states, the same LSN watermark, and new appends continue the backend's
// log.
//
// A torn final record — a crash mid-append — is truncated away by the
// backend's replay; the store reopens with every record whose commit cycle
// completed. Any other framing or checksum failure surfaces as
// *storage.CorruptError.
func Recover(opts Options, types ...*entity.Type) (*DB, error) {
	if opts.Backend == nil {
		return nil, errors.New("lsdb: Recover needs Options.Backend")
	}
	db := Open(opts)
	if db.tiered != nil {
		db.txnFloor = db.tiered.TxnFloor()
		// Every table key becomes an entry: sizing the entry maps for them up
		// front spares recovery the maps' growth. The sum over tables is an
		// upper bound (a key can sit in several).
		if n := db.tiered.TieredStats().TableKeys; n > 0 {
			for _, s := range db.shards {
				s.entries = make(map[entity.Key]*entry, int(n)/len(db.shards)+1)
			}
		}
	}
	for _, t := range types {
		if err := db.RegisterType(t); err != nil {
			return nil, err
		}
	}
	// Replay feeds the store through the bulk-load path; nothing is written
	// back to the backend (its content is already durable).
	db.recovering = true
	defer func() { db.recovering = false }()

	// Appended records are buffered and installed in global LSN order: the
	// WAL interleaves independently-committing shards, and the bulk-load
	// path needs per-entity LSN order for any shard count. History-rewrite
	// marks are anchored to the highest record LSN already in the log where
	// they appear (the WAL is in real commit order, so everything a mark
	// could have observed precedes it) and re-applied at exactly that point
	// in the LSN-ordered install — a serially-written store replays its
	// compaction decisions verbatim; for racy histories the interleaving is
	// one of the serialisations the live store could have taken.
	type anchoredMark struct {
		mark Record
		pos  uint64 // highest record LSN preceding the mark in the log
	}
	var records []Record
	var marks []anchoredMark
	var maxSeen uint64
	watermark, err := opts.Backend.Replay(func(rec storage.WALRecord) error {
		switch rec.Kind {
		case storage.KindAppend:
			if rec.LSN > maxSeen {
				maxSeen = rec.LSN
			}
			records = append(records, rec)
		case storage.KindSummary:
			s := db.shardFor(rec.Key)
			if rec.Summary == nil {
				// A tiered backend replays table summaries as light cold
				// pointers (key + horizon, no state): the summary stays
				// disk-resident until a read warms it. Newest-first replay
				// can deliver several per key; the highest horizon wins and
				// a warm always fetches the newest table's copy anyway.
				// Without a tiered backend there is nothing to install.
				if db.tiered != nil {
					if e := s.ensure(rec.Key); !e.cold || rec.Horizon >= e.coldAt {
						e.cold, e.coldAt = true, rec.Horizon
					}
				}
				break
			}
			e := s.ensure(rec.Key)
			s.setArchivedLocked(e, rec.Summary) // decoded frozen
			e.archivedAt = max(e.archivedAt, rec.Horizon)
			e.cold, e.coldAt = false, 0
			// A full summary lives only in the log that replayed it; dirty,
			// the first flush moves it into a table.
			db.markDirtyLocked(s, rec.Key, e)
		case storage.KindObsolete, storage.KindCompact:
			marks = append(marks, anchoredMark{mark: rec, pos: maxSeen})
		default:
			return fmt.Errorf("lsdb: recover: unknown record kind %d", rec.Kind)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.SliceStable(records, func(i, j int) bool { return records[i].LSN < records[j].LSN })
	// A record can arrive twice: once as table detail and once from the WAL
	// tail past the flush boundary (segments prune at segment granularity,
	// so the tail can reach slightly below the newest table's watermark).
	// One copy per LSN installs.
	dedup := records[:0]
	for i := range records {
		if len(dedup) > 0 && dedup[len(dedup)-1].LSN == records[i].LSN {
			continue
		}
		dedup = append(dedup, records[i])
	}
	records = dedup
	apply := func(m Record) {
		if m.Kind == storage.KindCompact {
			db.Compact(m.Horizon)
		} else {
			db.replayObsolete(m.Key, m.TxnID)
		}
	}
	mi := 0
	for i := range records {
		for ; mi < len(marks) && marks[mi].pos < records[i].LSN; mi++ {
			apply(marks[mi].mark)
		}
		if err := db.loadRecord(records[i]); err != nil {
			return nil, fmt.Errorf("lsdb: recover: %w", err)
		}
	}
	for ; mi < len(marks); mi++ {
		apply(marks[mi].mark)
	}
	db.lsn.AdvanceTo(watermark)
	return db, nil
}

// replayObsolete applies an obsolescence mark, a frame only older builds
// wrote (they withdrew a promise by mark; a settlement record does it now):
// the record txnID wrote on key is flagged obsolete. A record no longer
// retained (a later compaction archived it) or already obsolete is left as
// it is, so a mark replayed twice changes nothing.
func (db *DB) replayObsolete(key entity.Key, txnID string) {
	s := db.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.entry(key); e != nil {
		if lsn, ok := s.txnLSNLocked(e, txnID); ok {
			s.settleLocked(e, lsn, false)
			db.markDirtyLocked(s, key, e)
		}
	}
}
