// Fault-injecting backend wrapper.
//
// FaultBackend wraps any Backend and injects the disk's failure vocabulary
// on demand: ENOSPC-style append refusals, torn (partial) batch writes,
// fsync failures that poison the backend permanently, and read-side
// corruption discovered mid-log. Injection is explicit — the caller's test
// or harness decides, typically from a seeded RNG, which operation fails —
// so every schedule replays deterministically. The wrapper mirrors the
// WAL's degradation semantics exactly:
//
//   - a plain append failure writes nothing and is retryable (space frees),
//   - a torn append persists a prefix of the batch and fail-stops the
//     backend (ErrFailStopped) until Quarantine erases the partial suffix,
//   - an fsync failure poisons the backend permanently (ErrPoisoned) — a
//     retried fsync can lie, so nothing in-process clears it,
//   - injected corruption surfaces as *CorruptError from reads and appends
//     alike (a lying disk is usually caught at the next I/O) until
//     Quarantine cuts the log back to the last verifiably good record.
package storage

import (
	"errors"
	"fmt"
	"sync"
)

// ErrNoSpace is the injected analogue of ENOSPC: the append wrote nothing
// and may succeed later, once space frees.
var ErrNoSpace = errors.New("storage: no space left on device (injected)")

// errTornAppend marks an injected partial batch write.
var errTornAppend = errors.New("storage: torn append (injected)")

// FaultStats counts what the wrapper injected and passed through.
type FaultStats struct {
	AppendsPassed uint64
	Quarantines   uint64

	appendsRefused uint64 // ENOSPC-style refusals (nothing written)
	tornAppends    uint64 // partial writes followed by fail-stop
	syncPoisonings uint64 // fsync failures (permanent)
	corruptionHits uint64 // operations refused by injected corruption
}

// FaultBackend wraps an inner Backend with schedulable fault injection. All
// methods are safe for concurrent use. The zero fault state passes every
// operation through untouched.
type FaultBackend struct {
	mu    sync.Mutex
	inner Backend

	failAppends int    // next n appends fail with ErrNoSpace
	tornNext    bool   // next append persists a prefix, then fail-stops
	poisonNext  bool   // next append's "fsync" fails, poisoning permanently
	corruptAt   uint64 // injected corruption at/after this append LSN (0: none)

	broken   bool // fail-stopped after a torn append; Quarantine clears
	poisoned bool // fsync lied; permanent

	// goodMark is the highest append LSN the inner backend fully and
	// cleanly accepted — the truncation point Quarantine cuts back to.
	goodMark uint64

	stats FaultStats
}

// NewFaultBackend wraps inner. Typically inner is a Memory backend (the
// harness's standby-comparable log) or a WAL.
func NewFaultBackend(inner Backend) *FaultBackend {
	return &FaultBackend{inner: inner}
}

// FailAppends makes the next n AppendBatch calls fail with ErrNoSpace
// without writing anything — the injected disk-full window. It is
// retryable: call (or let the schedule run the window down) and appends
// succeed again, like space freeing.
func (f *FaultBackend) FailAppends(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failAppends = n
}

// TearNextAppend makes the next AppendBatch persist only a prefix of its
// batch and then fail-stop the backend with ErrFailStopped, imitating a
// partial frame write the WAL could not erase. Quarantine repairs it.
func (f *FaultBackend) TearNextAppend() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tornNext = true
}

// PoisonNextSync makes the fsync of the next AppendBatch fail: the batch
// reaches the inner backend but the caller gets ErrPoisoned, and every
// later operation fails the same way. Permanent by design — never retry a
// failed fsync.
func (f *FaultBackend) PoisonNextSync() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.poisonNext = true
}

// CorruptFrom injects read-side corruption at and after lsn: Replay and
// StreamAfter fail with a typed *CorruptError when they reach it, and
// appends are refused the same way (a lying disk is usually detected at
// the next I/O). Quarantine clears it by cutting the log back to lsn-1.
func (f *FaultBackend) CorruptFrom(lsn uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.corruptAt = lsn
}

// Heal cancels any pending retryable injections (the ENOSPC window and a
// pending torn/fsync trigger that has not fired yet). It does not clear a
// fail-stop that already happened (Quarantine does) nor a poisoning
// (nothing does).
func (f *FaultBackend) Heal() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failAppends = 0
	f.tornNext = false
	f.poisonNext = false
}

// Stats returns a copy of the injection counters.
func (f *FaultBackend) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

func (f *FaultBackend) corruptErrLocked(op string) error {
	f.stats.corruptionHits++
	return &CorruptError{file: "injected", offset: int64(f.corruptAt), Reason: op + " hit injected corruption"}
}

// AppendBatch applies the scheduled fault, if any, then delegates.
func (f *FaultBackend) AppendBatch(recs []WALRecord) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case f.poisoned:
		return fmt.Errorf("storage: append: %w", ErrPoisoned)
	case f.broken:
		return fmt.Errorf("storage: append: %w", ErrFailStopped)
	case f.corruptAt > 0:
		return f.corruptErrLocked("append")
	case f.failAppends > 0:
		f.failAppends--
		f.stats.appendsRefused++
		return fmt.Errorf("storage: append: %w", ErrNoSpace)
	case f.tornNext:
		f.tornNext = false
		f.stats.tornAppends++
		if keep := len(recs) / 2; keep > 0 {
			if err := f.inner.AppendBatch(recs[:keep]); err != nil {
				return err
			}
		}
		f.broken = true
		return fmt.Errorf("storage: append: %w: %v", ErrFailStopped, errTornAppend)
	}
	if err := f.inner.AppendBatch(recs); err != nil {
		return err
	}
	for i := range recs {
		if recs[i].LSN > f.goodMark {
			f.goodMark = recs[i].LSN
		}
	}
	if f.poisonNext {
		f.poisonNext = false
		f.poisoned = true
		f.stats.syncPoisonings++
		return fmt.Errorf("storage: append sync: %w", ErrPoisoned)
	}
	f.stats.AppendsPassed++
	return nil
}

// Replay delegates, failing with a typed *CorruptError when the stream
// reaches injected corruption.
func (f *FaultBackend) Replay(fn func(WALRecord) error) (uint64, error) {
	f.mu.Lock()
	corruptAt := f.corruptAt
	f.mu.Unlock()
	wrapped := fn
	if corruptAt > 0 {
		wrapped = func(rec WALRecord) error {
			if rec.LSN >= corruptAt {
				f.mu.Lock()
				err := f.corruptErrLocked("replay")
				f.mu.Unlock()
				return err
			}
			if fn == nil {
				return nil
			}
			return fn(rec)
		}
	}
	return f.inner.Replay(wrapped)
}

// Sync delegates unless poisoned.
func (f *FaultBackend) Sync() error {
	f.mu.Lock()
	if f.poisoned {
		f.mu.Unlock()
		return fmt.Errorf("storage: sync: %w", ErrPoisoned)
	}
	f.mu.Unlock()
	return f.inner.Sync()
}

// Close delegates.
func (f *FaultBackend) Close() error { return f.inner.Close() }

// StreamAfter delegates through the Streamer fast path when the inner
// backend has one, failing typed at injected corruption.
func (f *FaultBackend) StreamAfter(after uint64, fn func(WALRecord) error) error {
	f.mu.Lock()
	corruptAt := f.corruptAt
	f.mu.Unlock()
	wrapped := fn
	if corruptAt > 0 {
		wrapped = func(rec WALRecord) error {
			if rec.LSN >= corruptAt {
				f.mu.Lock()
				err := f.corruptErrLocked("stream")
				f.mu.Unlock()
				return err
			}
			return fn(rec)
		}
	}
	st, ok := f.inner.(Streamer)
	if !ok {
		return errors.New("storage: inner backend does not stream")
	}
	return st.StreamAfter(after, wrapped)
}

// SetReplicationWatermark delegates when the inner backend has a marker.
func (f *FaultBackend) SetReplicationWatermark(lsn uint64) error {
	if rm, ok := f.inner.(ReplicationMarker); ok {
		return rm.SetReplicationWatermark(lsn)
	}
	return nil
}

// Quarantine cuts the log back to the last verifiably good append record:
// the torn suffix of a fail-stopped append and everything at or after an
// injected corruption point are dropped (delegating to the inner backend's
// own Quarantine when it has one), the fail-stop and corruption injections
// clear, and the backend accepts appends again. The caller refills the
// dropped suffix from a peer before resuming writes. A poisoned backend
// refuses — quarantine cannot restore unknown durability.
func (f *FaultBackend) Quarantine() (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.poisoned {
		return 0, fmt.Errorf("storage: quarantine: %w", ErrPoisoned)
	}
	lastGood := f.goodMark
	if f.corruptAt > 0 && f.corruptAt-1 < lastGood {
		lastGood = f.corruptAt - 1
	}
	switch inner := f.inner.(type) {
	case *Memory:
		inner.truncateAfter(lastGood)
	case Quarantiner:
		lg, err := inner.Quarantine()
		if err != nil {
			return 0, err
		}
		if lg < lastGood {
			lastGood = lg
		}
	}
	f.corruptAt = 0
	f.broken = false
	f.goodMark = lastGood
	f.stats.Quarantines++
	return lastGood, nil
}
