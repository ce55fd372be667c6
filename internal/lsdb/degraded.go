// Degraded read-only mode and the log-first commit protocol.
//
// Historically a backend append failure was post-install: the records were
// already committed in memory and the error merely told the writers their
// durability was unknown. That shape cannot degrade gracefully — a full
// disk would let the in-memory store run away from the log forever. The
// commit protocol is therefore log-first: a commit cycle reserves its LSN
// run and appends to the durable backend *before* installing anything in
// memory, under one global log mutex (db.logMu) so allocation and append
// are atomic. On failure the reservation is rolled back (the log stays
// dense — standby contiguous watermarks depend on LSNs having no holes)
// and the unit transitions to a typed degraded state: reads keep serving
// from the materialised cache, writers get ErrDegraded with a reason.
//
// Degraded states differ in how they heal:
//
//   - "append-error" (ENOSPC and other transient write failures): nothing
//     was written; the unit re-arms itself by probing the backend with the
//     next real append once RearmAfter has elapsed — space freeing is
//     enough, no operator action.
//   - "fail-stopped" (a partial append the backend could not erase) and
//     "corrupt" (the backend detected log corruption): permanent until
//     Repair quarantines the bad suffix and refills it from a peer.
//   - "poisoned" (an fsync failure): permanent, full stop. A failed fsync
//     is never retried — the page cache may disagree with the disk in ways
//     a second fsync would paper over. Recovery is restart or failover.
//
// The commit sink (replication) stays post-install: a sink failure still
// means "committed locally, replication in doubt", exactly as before.
package lsdb

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/storage"
)

// ErrDegraded is returned to writers while the unit is in degraded
// read-only mode: the durable log refused an append, so the store refuses
// installs rather than letting memory run ahead of the log. Reads are
// unaffected.
var ErrDegraded = errors.New("lsdb: degraded read-only mode, writes refused")

// DegradedState describes why a unit refuses writes.
type DegradedState struct {
	// Reason is the documented degraded state: "append-error" (retryable,
	// auto re-arms), "fail-stopped" or "corrupt" (permanent until Repair),
	// or "poisoned" (permanent until restart/failover).
	Reason string
	// Permanent reports that no append probe will be attempted; only
	// Repair (or a restart) clears the state.
	Permanent bool
	// Since is when the unit first entered the current degraded episode.
	Since time.Time
	// Err is the storage error that caused (or last confirmed) the state.
	Err error
}

// degradedInfo is the internal degraded record: the public state plus the
// earliest time a re-arm probe may run.
type degradedInfo struct {
	DegradedState
	retryAt time.Time
}

const defaultRearmAfter = time.Second

func (db *DB) rearmAfter() time.Duration {
	if db.opts.RearmAfter > 0 {
		return db.opts.RearmAfter
	}
	return defaultRearmAfter
}

// Degraded returns the unit's degraded state, or nil while writes are
// accepted. Lock-free; health surfaces poll it.
func (db *DB) Degraded() *DegradedState {
	if d := db.degraded.Load(); d != nil {
		st := d.DegradedState
		return &st
	}
	return nil
}

// DegradedEvents counts transitions into degraded mode.
func (db *DB) DegradedEvents() uint64 { return db.degradedEvents.Load() }

// WritesRefused counts appends and marks refused with ErrDegraded.
func (db *DB) WritesRefused() uint64 { return db.writesRefused.Load() }

// Rearms counts recoveries from degraded mode (successful probes and
// repairs).
func (db *DB) Rearms() uint64 { return db.rearms.Load() }

// classifyStorageErr maps a backend append error onto a degraded reason.
func classifyStorageErr(err error) (reason string, permanent bool) {
	var ce *storage.CorruptError
	switch {
	case errors.Is(err, storage.ErrPoisoned):
		return "poisoned", true
	case errors.As(err, &ce):
		return "corrupt", true
	case errors.Is(err, storage.ErrFailStopped):
		return "fail-stopped", true
	default:
		return "append-error", false
	}
}

// admitLocked decides whether an append may reach the backend. The caller
// holds logMu. While degraded it refuses with ErrDegraded — except that a
// retryable state past its retry time lets one real append through as the
// re-arm probe (success clears the state, failure re-arms the timer).
func (db *DB) admitLocked() error {
	d := db.degraded.Load()
	if d == nil {
		return nil
	}
	if !d.Permanent && time.Now().After(d.retryAt) {
		return nil // probe
	}
	db.writesRefused.Add(1)
	return fmt.Errorf("%w (%s): %w", ErrDegraded, d.Reason, d.Err)
}

// degradeLocked records a backend append failure and returns the typed
// error the writers get. The caller holds logMu.
func (db *DB) degradeLocked(cause error, now time.Time) error {
	reason, permanent := classifyStorageErr(cause)
	d := &degradedInfo{
		DegradedState: DegradedState{Reason: reason, Permanent: permanent, Since: now, Err: cause},
		retryAt:       now.Add(db.rearmAfter()),
	}
	if prev := db.degraded.Load(); prev != nil {
		d.Since = prev.Since
		if prev.Permanent {
			// Never soften: a poisoning is not downgraded by a later
			// ENOSPC-looking error from the same backend.
			d.Reason, d.Permanent = prev.Reason, true
		}
	} else {
		db.degradedEvents.Add(1)
	}
	db.degraded.Store(d)
	// The append that trips (or re-trips) degraded mode is itself a refused
	// write: count it, so the counter matches the ErrDegraded responses
	// callers observe — external monitors cross-check exactly that.
	db.writesRefused.Add(1)
	// Both sentinels stay visible: errors.Is(err, ErrDegraded) for the mode,
	// errors.Is/As on the cause for the storage-level diagnosis.
	return fmt.Errorf("%w (%s): %w", ErrDegraded, reason, cause)
}

// clearDegradedLocked re-arms writes after a successful probe or repair.
// The caller holds logMu.
func (db *DB) clearDegradedLocked() {
	if db.degraded.Load() != nil {
		db.degraded.Store(nil)
		db.rearms.Add(1)
	}
}

// logAppend is the log-first half of a commit cycle: it assigns recs their
// contiguous LSN run and appends them to the durable backend, atomically
// with respect to every other allocation (logMu). A record that carries
// EncodeUnstamped bytes as its Payload has its LSN stamped into them, so the
// backend frames the record's one encoding. Nothing is installed in
// memory until this returns nil. On a backend failure the reservation is
// rolled back — the log stays dense — and the error is the typed
// ErrDegraded the unit just transitioned into. The caller holds the
// shard's write lock (so backend cycles keep the order readers see).
func (db *DB) logAppend(recs []Record) error {
	db.logMu.Lock()
	defer db.logMu.Unlock()
	logged := db.opts.Backend != nil && !db.recovering
	if logged {
		if err := db.admitLocked(); err != nil {
			return err
		}
	}
	first := db.lsn.Reserve(len(recs))
	for i := range recs {
		recs[i].LSN = first + uint64(i)
		if recs[i].Payload != nil {
			recs[i].Payload = storage.StampLSN(recs[i].Payload, recs[i].LSN)
		}
	}
	if !logged {
		return nil
	}
	if err := db.opts.Backend.AppendBatch(recs); err != nil {
		db.lsn.Rollback(first, len(recs))
		return db.degradeLocked(err, time.Now())
	}
	db.sinceCkpt.Add(int64(len(recs)))
	db.clearDegradedLocked()
	return nil
}

// logMark appends a mark (a compaction horizon) to the backend, log-first
// like logAppend but without an LSN reservation (a mark carries none).
func (db *DB) logMark(mark Record) error {
	if db.opts.Backend == nil || db.recovering {
		return nil
	}
	db.logMu.Lock()
	defer db.logMu.Unlock()
	if err := db.admitLocked(); err != nil {
		return err
	}
	if err := db.opts.Backend.AppendBatch([]Record{mark}); err != nil {
		return db.degradeLocked(err, time.Now())
	}
	db.clearDegradedLocked()
	return nil
}

// waitCommitSink blocks on a commit sink's ack barrier (with no lock held)
// and wraps its error in the post-install phrasing: a sink failure is
// indeterminate — the records are committed locally and visible; only the
// replication guarantee is in doubt.
func waitCommitSink(wait func() error) error {
	if wait == nil {
		return nil
	}
	if err := wait(); err != nil {
		return fmt.Errorf("lsdb: commit sink failed (records are committed locally): %w", err)
	}
	return nil
}

// Repair heals a fail-stopped or corrupt backend: it quarantines the bad
// log suffix (storage.Quarantiner — the backend truncates to its last
// verifiably good record), refills everything after that point from fetch,
// and re-arms writes. fetch receives the quarantine's last-good LSN and
// returns the missing records in LSN order — typically replica.TailAfter
// over a standby's received log, or the primary's own RecordsAfterN when
// the in-memory store still holds the suffix (log-first means memory is
// always a subset of what was acked, so its copy is authoritative). A
// poisoned backend refuses: quarantine cannot restore unknown durability.
//
// Between the quarantine and the refill the unit stays degraded (the
// fail-stopped and corrupt states are permanent, so no probe can slip an
// append into the gap); concurrent Repair calls serialise on repairMu.
func (db *DB) Repair(fetch func(after uint64) ([]Record, error)) error {
	if db.opts.Backend == nil {
		return errors.New("lsdb: no backend to repair")
	}
	q, ok := db.opts.Backend.(storage.Quarantiner)
	if !ok {
		return errors.New("lsdb: backend does not support quarantine")
	}
	db.repairMu.Lock()
	defer db.repairMu.Unlock()
	db.logMu.Lock()
	lastGood, err := q.Quarantine()
	db.logMu.Unlock()
	if err != nil {
		return fmt.Errorf("lsdb: quarantine: %w", err)
	}
	// Fetch outside logMu: a fetch from this store's own memory takes shard
	// read locks, and appenders hold their shard lock while waiting on
	// logMu — holding both here would deadlock.
	var refill []Record
	if fetch != nil {
		if refill, err = fetch(lastGood); err != nil {
			return fmt.Errorf("lsdb: repair fetch after LSN %d: %w", lastGood, err)
		}
	}
	db.logMu.Lock()
	defer db.logMu.Unlock()
	if len(refill) > 0 {
		if err := db.opts.Backend.AppendBatch(refill); err != nil {
			return db.degradeLocked(err, time.Now())
		}
	}
	db.clearDegradedLocked()
	return nil
}
