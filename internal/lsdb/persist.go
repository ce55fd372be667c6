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
// stream straight in, and the WAL tail — records and the summaries Compact
// logged — is replayed on top. Older builds' logs also hold marks without a
// log position; replayLegacyMarks is their one reader.
package lsdb

import (
	"errors"
	"fmt"
	"io"
	"math"
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
	for k, e := range s.entries.all() {
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
// how many records (summaries aside) it installed. With a Backend, the
// frames are logged in the cut's order, a batch of up to 256 before it
// installs, so a restart recovers what the cut installed.
func (db *DB) ReadCut(sr *storage.StreamReader) (int, error) {
	var n uint64
	if _, err := sr.Control(tagCount, &n); err != nil {
		return 0, fmt.Errorf("lsdb: load: %w", err)
	}
	records := 0
	batch := make([]Record, 0, min(n, 256))
	for i := range n {
		rec, err := sr.Record()
		switch {
		case err == io.EOF:
			err = io.ErrUnexpectedEOF // the cut's count is not met
		case err == nil && rec.Kind != storage.KindSummary && rec.Kind != storage.KindAppend:
			err = fmt.Errorf("record kind %d in a cut", rec.Kind)
		case err == nil:
			batch = append(batch, rec)
		}
		if err == nil && (len(batch) == cap(batch) || i == n-1) {
			err = db.logFrames(batch)
			for j := 0; err == nil && j < len(batch); j++ {
				if batch[j].Kind == storage.KindSummary {
					db.installSummary(batch[j])
				} else if err = db.loadRecord(batch[j]); err == nil {
					records++
				}
			}
			batch = batch[:0]
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
// A record at or below its entity's summary horizon is already folded into
// the summary and is not installed; only its id counts (TxnFloor). The
// record goes in as an append whatever its Kind says. The one error is a
// record whose values cannot be encoded, which no decoder of this package or
// of storage produces.
func (db *DB) loadRecord(rec Record) error {
	rec.Kind = storage.KindAppend
	s := db.shardFor(rec.Key)
	s.mu.Lock()
	defer s.mu.Unlock()
	db.lsn.AdvanceTo(rec.LSN)
	e := s.ensure(rec.Key)
	if rec.LSN <= max(e.archivedAt, e.coldAt) {
		if prefix, seq, ok := splitTxnID(rec.TxnID); ok && prefix == s.own {
			s.txnFloor = max(s.txnFloor, seq)
		}
		return nil
	}
	recs := append(s.cycle[:0], rec)
	_, err := s.installLocked(recs, db.opts.SegmentSize)
	s.endCycleLocked(recs)
	if err != nil {
		return err
	}
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
	return nil
}

// --- Recovery ----------------------------------------------------------------

// Recover opens a database and rebuilds it from the backend in opts.Backend:
// with a tiered backend, the newest tables' summaries and detail plus only
// the WAL segments written after the last flush — not the full history. The
// given entity types are registered before replay (an older build's
// compaction mark re-runs rollups, which need them). After Recover returns,
// the store serves reads and writes exactly as the crashed instance did:
// byte-identical entity states, the same retained records, the same LSN
// watermark, and new appends continue the backend's log.
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
				s.entries.reset(int(n)/len(db.shards) + 1)
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

	// Summaries install as they arrive, the one with the highest horizon
	// winning. Appended records are buffered and installed after them, in
	// global LSN order: the WAL interleaves independently-committing
	// shards, and the bulk-load path needs per-entity LSN order for any
	// shard count. A record its entity's summary folds in does not install
	// (loadRecord), so the store retains exactly the records the live one
	// did. An older build's mark is anchored to the highest record LSN
	// logged before it (the LSN field carries the anchor).
	var records, marks []Record
	var maxSeen uint64
	watermark, err := opts.Backend.Replay(func(rec storage.WALRecord) error {
		switch rec.Kind {
		case storage.KindAppend:
			maxSeen = max(maxSeen, rec.LSN)
			records = append(records, rec)
		case storage.KindSummary:
			db.installSummary(rec)
		case storage.KindObsolete, storage.KindCompact:
			rec.LSN = maxSeen
			marks = append(marks, rec)
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
	for i := range records {
		marks = db.replayLegacyMarks(marks, records[i].LSN)
		if err := db.loadRecord(records[i]); err != nil {
			return nil, fmt.Errorf("lsdb: recover: %w", err)
		}
	}
	db.replayLegacyMarks(marks, math.MaxUint64)
	db.lsn.AdvanceTo(watermark)
	return db, nil
}

// installSummary installs a replayed or restored summary through the
// bulk-load path, unless the entity already has one at least as new. A tiered
// backend replays table summaries as cold pointers (key and horizon, no
// state): the summary stays disk-resident until a read warms it, and a warm
// fetches the newest table's copy. A full summary — one Compact or a cut
// logged — is installed dirty, so the first flush moves it into a table.
func (db *DB) installSummary(rec Record) {
	s := db.shardFor(rec.Key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.ensure(rec.Key)
	switch {
	case rec.Summary == nil:
		if db.tiered != nil && (!e.cold || rec.Horizon >= e.coldAt) {
			e.cold, e.coldAt = true, rec.Horizon
		}
	case (e.archived == nil && !e.cold) || rec.Horizon > max(e.archivedAt, e.coldAt):
		s.setArchivedLocked(e, rec.Summary.Freeze())
		e.archivedAt, e.cold, e.coldAt = rec.Horizon, false, 0
		e.cache.drop()
		db.markDirtyLocked(s, rec.Key, e)
	}
}

// replayLegacyMarks is the one reader of the marks older builds logged
// without a log position: it replays, in log order, the marks anchored below
// lsn, and returns the rest. Such a mark was anchored to the highest record
// LSN logged before it (the WAL is in commit order, so everything it could
// have observed precedes it), so it applies at exactly that point of the
// LSN-ordered install. A compaction horizon re-runs Compact there; an
// obsolescence mark (older builds withdrew a promise by mark; a settlement
// record does it now) flags the record its txn id wrote on its key obsolete.
// A record no longer retained (compacted away) or already obsolete is left
// as it is, so a mark replayed twice changes nothing.
func (db *DB) replayLegacyMarks(marks []Record, lsn uint64) []Record {
	for ; len(marks) > 0 && marks[0].LSN < lsn; marks = marks[1:] {
		m := marks[0]
		if m.Kind == storage.KindCompact {
			db.Compact(m.Horizon)
			continue
		}
		s := db.shardFor(m.Key)
		s.mu.Lock()
		if e := s.entry(m.Key); e != nil {
			if at, ok := s.txnLSNLocked(e, m.TxnID); ok {
				s.settleLocked(e, at, false)
				db.markDirtyLocked(s, m.Key, e)
			}
		}
		s.mu.Unlock()
	}
	return marks
}
