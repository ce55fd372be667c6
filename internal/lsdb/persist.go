// Persistence for the log-structured store.
//
// Two codecs serialise the log:
//
//   - The export/import codec (PersistedRecord): JSON, one document per
//     record, self-describing and diffable. It backs the Save/Load
//     compatibility API, the kernel's backup/restore streams and nothing on
//     the hot path. Numbers decode through json.Number, so int64 values
//     round-trip exactly — the old float64 detour silently corrupted
//     magnitudes above 2^53.
//   - The binary WAL codec (internal/storage): length-prefixed, CRC-framed,
//     exact by construction. It backs the durable write path and recovery.
//
// Recovery (Recover) rebuilds a store from a storage.Backend: the latest
// checkpoint's summaries and records stream straight in, the post-checkpoint
// tail is replayed on top, and history-rewrite marks (obsolescence,
// compaction horizons) are re-applied in log order at the end.
package lsdb

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/clock"
	"repro/internal/entity"
	"repro/internal/storage"
)

// PersistedRecord is the JSON wire shape of one record: the export/import
// codec shared by Save/Load and the kernel's backup/restore streams.
// Operations are stored in a restricted form that round-trips the Op fields
// actually used.
type PersistedRecord struct {
	LSN       uint64        `json:"lsn"`
	Key       string        `json:"key"`
	Stamp     string        `json:"stamp"`
	Origin    string        `json:"origin"`
	TxnID     string        `json:"txn,omitempty"`
	Tentative bool          `json:"tentative,omitempty"`
	Obsolete  bool          `json:"obsolete,omitempty"`
	Ops       []PersistedOp `json:"ops"`
	// Kind and Horizon carry history-rewrite marks (obsolescence, compaction)
	// over the replication wire. Both are zero on ordinary appended records —
	// and on every record in a backup stream, which exports live records only
	// — so the backup format is unchanged.
	Kind    int    `json:"kind,omitempty"`
	Horizon uint64 `json:"horizon,omitempty"`
}

// PersistedOp is the JSON wire shape of one operation descriptor.
type PersistedOp struct {
	Kind       int                    `json:"k"`
	Field      string                 `json:"f,omitempty"`
	Value      interface{}            `json:"v,omitempty"`
	Delta      float64                `json:"d,omitempty"`
	Collection string                 `json:"c,omitempty"`
	ChildID    string                 `json:"ci,omitempty"`
	ChildRow   map[string]interface{} `json:"cr,omitempty"`
	Describe   string                 `json:"desc,omitempty"`
}

// ToPersisted converts a record to its JSON wire shape.
func ToPersisted(r Record) PersistedRecord {
	pr := PersistedRecord{
		LSN:       r.LSN,
		Key:       r.Key.String(),
		Stamp:     r.Stamp.String(),
		Origin:    string(r.Origin),
		TxnID:     r.TxnID,
		Tentative: r.Tentative,
		Obsolete:  r.Obsolete,
		Kind:      int(r.Kind),
		Horizon:   r.Horizon,
	}
	if r.Key == (entity.Key{}) {
		pr.Key = "" // a compaction mark has no key; "/" would not re-parse
	}
	for _, op := range r.Ops {
		pr.Ops = append(pr.Ops, PersistedOp{
			Kind: int(op.Kind), Field: op.Field, Value: op.Value, Delta: op.Delta,
			Collection: op.Collection, ChildID: op.ChildID, ChildRow: op.ChildRow, Describe: op.Describe,
		})
	}
	return pr
}

// FromPersisted converts a decoded wire record back to a Record. Decode the
// stream with json.Decoder.UseNumber (Load and the kernel's import do): the
// json.Number values are then normalised to the exact int64/float64 split
// the entity layer expects, preserving 64-bit integer magnitudes that the
// float64 detour would corrupt.
func FromPersisted(pr PersistedRecord) (Record, error) {
	var key entity.Key
	if pr.Key != "" {
		var err error
		if key, err = entity.ParseKey(pr.Key); err != nil {
			return Record{}, err
		}
	}
	stamp, err := clock.ParseTimestamp(pr.Stamp)
	if err != nil {
		return Record{}, err
	}
	ops := make([]entity.Op, 0, len(pr.Ops))
	for _, po := range pr.Ops {
		ops = append(ops, entity.Op{
			Kind: entity.OpKind(po.Kind), Field: po.Field, Value: normaliseJSON(po.Value), Delta: po.Delta,
			Collection: po.Collection, ChildID: po.ChildID, ChildRow: normaliseRow(po.ChildRow), Describe: po.Describe,
		})
	}
	return Record{
		LSN: pr.LSN, Key: key, Ops: ops, Stamp: stamp,
		Origin: clock.NodeID(pr.Origin), TxnID: pr.TxnID,
		Tentative: pr.Tentative, Obsolete: pr.Obsolete,
		Kind: storage.RecordKind(pr.Kind), Horizon: pr.Horizon,
	}, nil
}

// PersistedState is the JSON wire shape of an archived summary: the rollup
// of an entity whose detail records were compacted away. Summaries are not
// reconstructible from the record stream, so a complete export must carry
// them explicitly — exactly as the binary checkpoint codec does with
// KindSummary records.
//
// Unlike record operations — whose values are re-coerced against the schema
// when a rollup applies them — summary fields install verbatim, so their
// wire form must be type-faithful: JSON renders float64(20) as "20",
// indistinguishable from int64(20). Floats are therefore wrapped as
// {"$float": v} (tagJSONValue); everything else round-trips through
// json.Number as usual.
type PersistedState struct {
	Key         string                      `json:"key"`
	Fields      map[string]interface{}      `json:"fields"`
	Tentative   bool                        `json:"tentative,omitempty"`
	Deleted     bool                        `json:"deleted,omitempty"`
	Collections map[string][]PersistedChild `json:"collections,omitempty"`
}

// PersistedChild is one child row of a persisted summary, tombstones
// included.
type PersistedChild struct {
	ID      string                 `json:"id"`
	Fields  map[string]interface{} `json:"fields"`
	Deleted bool                   `json:"deleted,omitempty"`
}

// floatTag marks a wrapped float64 in summary JSON. A user map carrying this
// exact single key would be mis-decoded; entity field values are built from
// operation descriptors, which have no reason to produce it.
const floatTag = "$float"

// tagJSONValue wraps floats so integral float64 values survive the JSON
// round trip with their type; containers recurse.
func tagJSONValue(v interface{}) interface{} {
	switch x := v.(type) {
	case float64:
		return map[string]interface{}{floatTag: x}
	case entity.Fields:
		return tagJSONRow(x)
	case map[string]interface{}:
		out := make(map[string]interface{}, len(x))
		for k, e := range x {
			out[k] = tagJSONValue(e)
		}
		return out
	case []interface{}:
		out := make([]interface{}, len(x))
		for i, e := range x {
			out[i] = tagJSONValue(e)
		}
		return out
	default:
		return v
	}
}

func tagJSONRow(row entity.Fields) map[string]interface{} {
	if row == nil {
		return nil
	}
	out := make(map[string]interface{}, len(row))
	for k, v := range row {
		out[k] = tagJSONValue(v)
	}
	return out
}

// untagJSONValue reverses tagJSONValue on a UseNumber-decoded value.
func untagJSONValue(v interface{}) interface{} {
	switch x := v.(type) {
	case map[string]interface{}:
		if len(x) == 1 {
			if f, ok := x[floatTag]; ok {
				if n, isNum := f.(json.Number); isNum {
					if fv, err := n.Float64(); err == nil {
						return fv
					}
				}
				if fv, isFloat := f.(float64); isFloat {
					return fv
				}
			}
		}
		out := make(map[string]interface{}, len(x))
		for k, e := range x {
			out[k] = untagJSONValue(e)
		}
		return out
	case []interface{}:
		out := make([]interface{}, len(x))
		for i, e := range x {
			out[i] = untagJSONValue(e)
		}
		return out
	default:
		return normaliseJSON(v)
	}
}

func untagJSONRow(row map[string]interface{}) entity.Fields {
	out := make(entity.Fields, len(row))
	for k, v := range row {
		out[k] = untagJSONValue(v)
	}
	return out
}

// ToPersistedState converts a (frozen) state to its JSON wire shape.
func ToPersistedState(st *entity.State) PersistedState {
	ps := PersistedState{
		Key:       st.Key.String(),
		Fields:    tagJSONRow(st.Fields),
		Tentative: st.Tentative,
		Deleted:   st.Deleted,
	}
	cols := st.Collections()
	if len(cols) > 0 {
		ps.Collections = make(map[string][]PersistedChild, len(cols))
		for _, name := range cols {
			rows := st.Children(name)
			out := make([]PersistedChild, len(rows))
			for i, row := range rows {
				out[i] = PersistedChild{ID: row.ID, Fields: tagJSONRow(row.Fields), Deleted: row.Deleted}
			}
			ps.Collections[name] = out
		}
	}
	return ps
}

// FromPersistedState rebuilds a frozen state from its wire shape. Decode the
// stream with UseNumber for exact int64 values, as with FromPersisted.
func FromPersistedState(ps PersistedState) (*entity.State, error) {
	key, err := entity.ParseKey(ps.Key)
	if err != nil {
		return nil, err
	}
	st := entity.NewState(key)
	for k, v := range ps.Fields {
		st.Fields[k] = untagJSONValue(v)
	}
	st.Tentative = ps.Tentative
	st.Deleted = ps.Deleted
	for name, rows := range ps.Collections {
		for _, row := range rows {
			fields := untagJSONRow(row.Fields)
			if fields == nil {
				fields = entity.Fields{}
			}
			st.RestoreChild(name, entity.Child{ID: row.ID, Fields: fields, Deleted: row.Deleted})
		}
	}
	return st.Freeze(), nil
}

// SummaryEntry is one archived summary in an export cut.
type SummaryEntry struct {
	Key   entity.Key
	State *entity.State
}

// ExportCut returns one atomic cut of the store: every archived summary
// (sorted by key) and every retained record in global LSN order, read under
// a single all-shard lock window. Atomicity matters: read in two windows, a
// concurrent Compact could move an entity from the record set into the
// archive between them and the entity would appear in neither. The states
// are frozen and shared; do not mutate them.
func (db *DB) ExportCut() ([]SummaryEntry, []Record) {
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
	var summaries []SummaryEntry
	for _, s := range db.shards {
		summaries = s.summariesLocked(summaries)
	}
	return sortSummaries(summaries), db.recordsAfterLocked(0)
}

// summariesLocked appends the shard's archived summaries to out, in no
// order. The caller holds the shard lock.
func (s *shard) summariesLocked(out []SummaryEntry) []SummaryEntry {
	if s.archivedN == 0 {
		return out
	}
	for k, e := range s.entries {
		if e.archived != nil {
			out = append(out, SummaryEntry{Key: k, State: e.archived})
		}
	}
	return out
}

// sortSummaries orders summaries by key, so identical stores export
// identical streams.
func sortSummaries(sums []SummaryEntry) []SummaryEntry {
	sort.Slice(sums, func(i, j int) bool { return sums[i].Key.String() < sums[j].Key.String() })
	return sums
}

// RestoreSummary installs an archived summary through the bulk-load path
// (import codecs use it; normal archival happens via Compact). The state is
// frozen if it was not already.
func (db *DB) RestoreSummary(key entity.Key, st *entity.State) {
	s := db.shardFor(key)
	s.mu.Lock()
	e := s.ensure(key)
	s.setArchivedLocked(e, st.Freeze())
	e.cache.drop()
	e.cold, e.coldAt = false, 0
	db.markDirtyLocked(s, key, e)
	s.mu.Unlock()
}

// Save writes every retained record as one JSON document per line, in global
// LSN order (shard runs are merged so Load can rebuild per-shard ordering
// for any shard count). Output is buffered, so each record costs one encoder
// call rather than one syscall-sized write per line. Archived summaries are
// not persisted; callers that need them should compact after loading. Save
// remains as the portable export path — durable deployments use a
// storage.Backend instead (Options.Backend, Recover).
func (db *DB) Save(w io.Writer) error {
	records := db.RecordsAfter(0)
	bw := bufio.NewWriterSize(w, 1<<16)
	enc := json.NewEncoder(bw)
	for _, r := range records {
		if err := enc.Encode(ToPersisted(r)); err != nil {
			return fmt.Errorf("lsdb: save: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("lsdb: save: %w", err)
	}
	return nil
}

// Load replays a stream produced by Save into the database. Input is
// buffered. The database must be freshly opened with the same entity types
// registered. Loaded records invalidate any materialised state for their
// entity; reads after Load rebuild from the log.
func (db *DB) Load(r io.Reader) error {
	dec := json.NewDecoder(bufio.NewReaderSize(r, 1<<16))
	dec.UseNumber() // exact int64 round trip; see FromPersisted
	for {
		var pr PersistedRecord
		if err := dec.Decode(&pr); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("lsdb: load: %w", err)
		}
		rec, err := FromPersisted(pr)
		if err != nil {
			return fmt.Errorf("lsdb: load: %w", err)
		}
		db.LoadRecord(rec)
	}
}

// LoadRecord installs one already-sealed record through the bulk-load path:
// no validation or state application, straight into the owning shard's log
// and indexes. Records for one entity must arrive in ascending LSN order
// (global LSN order, as Save/Replay produce, satisfies this for every shard
// count). The LSN sequence advances past the record so later appends never
// collide.
func (db *DB) LoadRecord(rec Record) {
	s := db.shardFor(rec.Key)
	s.mu.Lock()
	s.reserveLocked(1, db.opts.SegmentSize)[0] = rec
	s.sealFullLocked()
	e := s.ensure(rec.Key)
	e.addRec(rec.LSN, rec.TxnID)
	e.cache.drop()
	db.markDirtyLocked(s, rec.Key, e)
	db.lsn.AdvanceTo(rec.LSN)
	s.mu.Unlock()
}

// IngestShipped installs replicated records that arrive *after* a store has
// been recovered — the streaming half of promotion, where a promoted standby
// already serves reads while the union of its peers' log tails is still being
// pulled chunk by chunk. Appends keep their original LSNs (the bulk-load
// path, which also advances the LSN sequence so post-union writes continue
// the stream) and are re-appended to this store's own backend so the durable
// log stays a complete copy; history-rewrite marks are re-applied through the
// ordinary mark paths, which log and (when a sink is attached) re-ship them.
//
// The caller guarantees what Recover's replay would have: records arrive in
// log order, appends of one entity in ascending LSN order, no LSN collides
// with a locally-assigned one (promotion refuses writes until the union
// completes), and duplicates are filtered before the call.
func (db *DB) IngestShipped(recs []Record) error {
	for _, rec := range recs {
		switch rec.Kind {
		case storage.KindObsolete:
			// ErrNotFound mirrors Recover: the mark's record may live in a
			// chunk that never arrives (compacted away on the peer) — the
			// live store's mark was a no-op then too.
			if err := db.MarkObsolete(rec.Key, rec.TxnID); err != nil && !errors.Is(err, ErrNotFound) {
				return fmt.Errorf("lsdb: ingest mark: %w", err)
			}
		case storage.KindCompact:
			db.Compact(rec.Horizon)
		case storage.KindAppend:
			if db.opts.Backend != nil {
				one := []Record{rec}
				db.logMu.Lock()
				err := db.opts.Backend.AppendBatch(one)
				db.logMu.Unlock()
				if err != nil {
					return fmt.Errorf("lsdb: ingest append: %w", err)
				}
			}
			rec.Kind, rec.Horizon, rec.Summary = 0, 0, nil
			db.LoadRecord(rec)
		default:
			return fmt.Errorf("lsdb: ingest: unknown record kind %d", rec.Kind)
		}
	}
	return nil
}

// normaliseJSON converts JSON-decoded numbers to the int64/float64 split the
// entity layer expects. With UseNumber decoding, integral values of any
// magnitude map to int64 exactly; without it (a raw float64) the integral
// check is best-effort, as before. Containers are normalised recursively so
// nested values round-trip the same way scalars do.
func normaliseJSON(v interface{}) interface{} {
	switch x := v.(type) {
	case json.Number:
		if i, err := x.Int64(); err == nil {
			return i
		}
		// Above MaxInt64: a uint64 value that kept its identity through
		// canonicalisation (and the binary codec's vUint tag); falling back
		// to float64 would corrupt the magnitude.
		if u, err := strconv.ParseUint(x.String(), 10, 64); err == nil {
			return u
		}
		if f, err := x.Float64(); err == nil {
			return f
		}
		return x.String()
	case float64:
		if x == float64(int64(x)) {
			return int64(x)
		}
		return x
	case map[string]interface{}:
		out := make(map[string]interface{}, len(x))
		for k, e := range x {
			out[k] = normaliseJSON(e)
		}
		return out
	case []interface{}:
		out := make([]interface{}, len(x))
		for i, e := range x {
			out[i] = normaliseJSON(e)
		}
		return out
	default:
		return v
	}
}

func normaliseRow(row map[string]interface{}) entity.Fields {
	if row == nil {
		return nil
	}
	out := make(entity.Fields, len(row))
	for k, v := range row {
		out[k] = normaliseJSON(v)
	}
	return out
}

// --- Recovery ----------------------------------------------------------------

// Recover opens a database and rebuilds it from the backend in opts.Backend:
// the latest checkpoint's archived summaries and records, plus only the log
// segments written after that checkpoint — not the full history. The given
// entity types are registered before replay (compaction marks re-run rollups,
// which need them). After Recover returns, the store serves reads and writes
// exactly as the crashed instance did: byte-identical entity states, the
// same LSN watermark, and new appends continue the backend's log.
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
			// With a tiered backend a full summary in the WAL is a legacy
			// (pre-tiered) checkpoint snapshot; marking it dirty migrates it
			// into the first flush's table, after which the snapshot can be
			// pruned safely.
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
	apply := func(m Record) error {
		switch m.Kind {
		case storage.KindObsolete:
			// ErrNotFound means the marked record was archived by a later
			// compaction before this store crashed — the live store's mark
			// was a no-op then too.
			if err := db.MarkObsolete(m.Key, m.TxnID); err != nil && !errors.Is(err, ErrNotFound) {
				return fmt.Errorf("lsdb: recover: %w", err)
			}
		case storage.KindCompact:
			db.Compact(m.Horizon)
		}
		return nil
	}
	mi := 0
	for i := range records {
		for mi < len(marks) && marks[mi].pos < records[i].LSN {
			if err := apply(marks[mi].mark); err != nil {
				return nil, err
			}
			mi++
		}
		records[i].Kind, records[i].Horizon, records[i].Summary = 0, 0, nil
		db.LoadRecord(records[i])
	}
	for ; mi < len(marks); mi++ {
		if err := apply(marks[mi].mark); err != nil {
			return nil, err
		}
	}
	db.lsn.AdvanceTo(watermark)
	return db, nil
}
