// Package storage is the pluggable persistence layer under the LSDB: it
// defines the durable form of the log — WALRecord — and the Backend interface
// a store writes its commit cycles through. The paper's model (section 3.1)
// makes the log the database; the natural durable form is therefore an
// append-only write-ahead log whose replay rebuilds the store. Recovery is
// bounded by tiering, not by snapshots: a tiered flush (the Tiered seam,
// implemented by internal/lsm) summarises settled history into immutable
// tables and prunes the WAL segments they cover, so a restart reads the
// newest tables plus the log tail.
//
// Two implementations ship with the package:
//
//   - Memory: retains everything in process memory. It is the no-op backend
//     for purely main-memory deployments and the reference implementation the
//     WAL's tests compare against.
//   - WAL (wal.go): segmented append-only files with length-prefixed binary
//     framing, per-record CRC32, size-based segment rotation, a manifest of
//     where the replayable tail starts, and torn-tail recovery.
//
// The write-side attachment point in the store is the commit cycle: one
// AppendBatch call per cycle — one framed batch write and at most one
// fsync.
package storage

import (
	"errors"
	"sync"

	"repro/internal/clock"
	"repro/internal/entity"
)

// RecordKind distinguishes the durable log entry types. Appended entity
// records are the bulk of the log; archived summaries are records too, so one
// framing, one codec and one Replay stream carry everything. Every frame has
// a log position: an append its LSN, a summary the horizon it folds in.
type RecordKind uint8

// Durable record kinds.
const (
	// KindAppend is an appended entity record: the operations one
	// transaction applied to one entity.
	KindAppend RecordKind = iota
	// KindObsolete and KindCompact are the marks older builds logged
	// without a position: an obsolescence mark (Key, TxnID) and a
	// compaction horizon (Horizon). No build writes them now; lsdb.Recover
	// is their one reader.
	KindObsolete
	KindCompact
	// KindSummary is an archived entity summary: the rollup of an entity
	// through Horizon, whose detail records were compacted away (Compact's
	// log, a cut's summaries, a tiered table's settled state).
	KindSummary
)

// WALRecord is one durable log entry. For KindAppend it is exactly the
// store's in-memory record (the LSDB aliases its Record type to this struct,
// so commit cycles append with zero conversion); a KindSummary uses Key,
// Summary and Horizon.
type WALRecord struct {
	LSN       uint64
	Key       entity.Key
	Ops       []entity.Op
	Stamp     clock.Timestamp
	Origin    clock.NodeID
	TxnID     string
	Tentative bool
	// Obsolete marks a tentative record whose promise was later withdrawn.
	// Obsolete records remain in the log for auditability but are skipped by
	// rollups.
	Obsolete bool

	// Kind distinguishes appended entity records (the zero value) from
	// archived summaries.
	Kind RecordKind
	// Horizon is the highest LSN a KindSummary record folds in.
	Horizon uint64
	// Summary is the archived state of a KindSummary record. It is frozen.
	Summary *entity.State

	// Payload, when non-nil, is the record's encoding — exactly the bytes
	// EncodeRecord produces for it — made once by whoever built the record.
	// Framing (AppendFrame, and through it the WAL and the table writer)
	// copies it instead of encoding the record again. It is borrowed for
	// the call the record is handed to: a callee that keeps the record
	// drops it (see Memory.AppendBatch), and nothing returns a record that
	// carries one.
	Payload []byte
}

// Backend is the persistence engine under one store. Implementations must be
// safe for concurrent use: shards commit independently, so AppendBatch may be
// invoked concurrently with itself and with Sync. Replay happens before the
// store accepts writes, so implementations may serialise it on the same mutex
// as AppendBatch without deadlock. A backend keeps the past by appending; the
// only way settled history leaves the log is a tiered flush (Tiered), which
// summarises it into immutable tables first.
type Backend interface {
	// AppendBatch durably appends one commit cycle's records: one framed
	// batch write, and one log force before returning when the backend is
	// configured to sync on append. An error means durability is unknown;
	// the store surfaces it to every writer in the cycle. A record's
	// Payload is valid only during the call.
	AppendBatch(recs []WALRecord) error

	// Replay streams the durable content in recovery order and returns a
	// watermark: the highest LSN whose record the backend summarised or
	// pruned from its log (0 when none), so a recovering store never reuses
	// it. Replay must be called before the first AppendBatch; a torn tail
	// record left by a crash is truncated here.
	Replay(fn func(WALRecord) error) (watermark uint64, err error)

	// Sync forces everything appended so far to stable storage.
	Sync() error

	// Close syncs and releases the backend. The backend is unusable after.
	Close() error
}

// ErrClosed is returned by operations on a closed backend.
var ErrClosed = errors.New("storage: backend closed")

// ErrCompacted reports that a StreamAfter cut predates history that has been
// compacted into archived summaries: the records the receiver is missing no
// longer exist individually, so a tail stream cannot serve them. The receiver
// must bootstrap from a full copy instead.
var ErrCompacted = errors.New("storage: stream cut predates compacted history")

// ErrPoisoned reports a backend that observed an fsync failure. A failed
// fsync leaves the page cache and the disk in unknown disagreement, and a
// retried fsync can report success without making the lost pages durable
// (the kernel marks them clean when it first reports the error). The only
// honest reaction is to fail-stop the writer side permanently; recovery is
// a restart — which replays only what the disk really holds — or a repair
// from a peer's copy of the log.
var ErrPoisoned = errors.New("storage: backend poisoned by fsync failure")

// ErrFailStopped reports a backend that refused further appends after a
// partial write it could not erase: continuing would bury garbage under
// valid frames and turn a transient write error into mid-log corruption.
// Unlike ErrPoisoned it is repairable — Quarantine truncates the partial
// suffix and re-arms the backend.
var ErrFailStopped = errors.New("storage: backend fail-stopped after a partial append")

// Quarantiner is the optional repair interface of a backend. When replay or
// a tail stream hits corruption, Quarantine isolates the corrupt suffix —
// everything after the last verifiably good record is truncated or set
// aside — and re-arms the backend for appends. The caller then refills the
// removed suffix from a peer's copy of the log (replication catch-up)
// before resuming writes. It returns the LSN of the last good append record
// the backend still holds.
type Quarantiner interface {
	Quarantine() (lastGood uint64, err error)
}

// Streamer is the optional catch-up interface of a backend: replication uses
// it to re-ship the log tail a standby missed (loss, partition, restart)
// straight from durable storage, without holding the whole history in memory.
// Both bundled backends implement it.
type Streamer interface {
	// StreamAfter streams, in log order, every appended entity record with
	// LSN > after. Only appends stream: when the requested cut predates
	// history the log no longer holds as detail (pruned by a tiered flush),
	// or the log holds a frame that is not an append, StreamAfter fails
	// with ErrCompacted instead of silently gapping.
	StreamAfter(after uint64, fn func(WALRecord) error) error
}

// ReplicationMarker is the optional replication-watermark interface of a
// backend: a standby durably records the highest LSN it has received. The
// WAL persists the mark in its manifest, where TruncateThrough reads it.
type ReplicationMarker interface {
	// SetReplicationWatermark durably records lsn as the replication
	// watermark.
	SetReplicationWatermark(lsn uint64) error
}

// Memory is the in-process backend: one append-only slice, no durability. It
// is the no-op choice for main-memory deployments (a restart loses the log, as
// before this package existed) while still honouring the full Backend
// contract — Replay returns what was appended — so tests can run one store
// against Memory and one against a WAL and compare.
type Memory struct {
	mu         sync.Mutex
	closed     bool
	replicated uint64
	recs       []WALRecord
}

// NewMemory returns an empty in-memory backend.
func NewMemory() *Memory { return &Memory{} }

// AppendBatch retains the records in memory.
func (m *Memory) AppendBatch(recs []WALRecord) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	n := len(m.recs)
	m.recs = append(m.recs, recs...)
	for i := n; i < len(m.recs); i++ {
		m.recs[i].Payload = nil // borrowed from the caller
	}
	return nil
}

// Replay streams every retained record in append order. Memory prunes
// nothing, so the watermark is always 0.
func (m *Memory) Replay(fn func(WALRecord) error) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, ErrClosed
	}
	for _, rec := range m.recs {
		if err := fn(rec); err != nil {
			return 0, err
		}
	}
	return 0, nil
}

// Sync is a no-op: memory is as stable as this backend gets.
func (m *Memory) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	return nil
}

// Close marks the backend unusable.
func (m *Memory) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}

// Len reports how many records the backend retains.
func (m *Memory) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.recs)
}

// StreamAfter streams retained append records with LSN > after, per the
// Streamer contract.
func (m *Memory) StreamAfter(after uint64, fn func(WALRecord) error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	for _, rec := range m.recs {
		if err := streamAppend(after, rec, fn); err != nil {
			return err
		}
	}
	return nil
}

// streamAppend is one step of a StreamAfter: rec goes to fn if it is an
// append past the cut; any other frame fails the stream with ErrCompacted.
func streamAppend(after uint64, rec WALRecord, fn func(WALRecord) error) error {
	switch {
	case rec.Kind != KindAppend:
		return ErrCompacted
	case rec.LSN <= after:
		return nil
	}
	return fn(rec)
}

// truncateAfter drops the suffix starting at the first append record with
// LSN > lsn (everything logged after that point is suspect once the log is
// being quarantined; the repair refill re-supplies the range from a peer).
// Only an append carries a nonzero LSN.
func (m *Memory) truncateAfter(lsn uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, rec := range m.recs {
		if rec.LSN > lsn {
			m.recs = m.recs[:i]
			return
		}
	}
}

// SetReplicationWatermark records lsn as the replication watermark.
func (m *Memory) SetReplicationWatermark(lsn uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	m.replicated = lsn
	return nil
}
