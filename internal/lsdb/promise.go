// Promises are log state (principle 2.9). A promise is the tentative record
// that makes it: its txn id is the promise's id, its first op the terms
// (entity.Promise). A settlement is a record whose one op names the promise
// (entity.KeepPromise, entity.BreakPromise); its commit cycle flips the
// promise record's flag in place under the shard lock, and replaying it
// (loadRecord) flips it again. The pending promises are the live tentative
// records, on a live, restarted or promoted store alike.
package lsdb

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/apology"
	"repro/internal/entity"
)

// settles reads a settlement record's op: the promise it names and whether
// it breaks it.
func settles(ops []entity.Op) (id string, broken, ok bool) {
	if len(ops) != 1 {
		return "", false, false
	}
	return ops[0].Settles()
}

// promiseLocked returns the LSN of e's pending promise id, or why a
// settlement naming it is refused. The caller holds the shard's write lock.
func (s *shard) promiseLocked(e *entry, key entity.Key, id string) (uint64, error) {
	lsn, ok := s.txnLSNLocked(e, id)
	if ok && s.pendingAtLocked(e, lsn) {
		return lsn, nil
	}
	if rec, _ := s.recordLocked(lsn); ok {
		if _, made := promiseOf(key, rec); made || rec.Tentative {
			return 0, fmt.Errorf("%w: %s on %s", apology.ErrAlreadySettled, id, key)
		}
	}
	return 0, fmt.Errorf("%w: %s on %s", apology.ErrUnknownPromise, id, key)
}

// pendingAtLocked reports whether e's record at lsn is a pending promise:
// tentative, not withdrawn, and above the summary horizon (recovery can
// retain a table's stale copy of a record the summary folds in).
func (s *shard) pendingAtLocked(e *entry, lsn uint64) bool {
	h, ok := s.headerLocked(lsn)
	return ok && h.Tentative && !h.Obsolete && lsn > e.archivedAt && lsn > e.coldAt
}

// pendingLocked appends e's pending promises to out, in LSN order.
func (s *shard) pendingLocked(out []apology.Promise, key entity.Key, e *entry) []apology.Promise {
	for i := 0; e.tentative && i < len(e.recs); i++ {
		if s.pendingAtLocked(e, e.recs[i]) {
			rec, _ := s.recordLocked(e.recs[i])
			p, _ := promiseOf(key, rec)
			out = append(out, p)
		}
	}
	return out
}

// settleLocked flips the flag of e's record at lsn in place unless already
// settled: obsolete set (a break, an older build's obsolescence mark) or,
// with keep, tentative cleared. The cached state folded the old flag in and goes, and so does a
// snapshot covering the record (an older one is still a valid prefix).
func (s *shard) settleLocked(e *entry, lsn uint64, keep bool) {
	rec, _ := s.recordLocked(lsn)
	if rec.Obsolete || keep && !rec.Tentative {
		return
	}
	if _, _, ok := settles(rec.Ops); !ok && !keep {
		e.live--
	}
	s.flagLocked(lsn, keep)
	e.cache.drop()
	if e.snap.lsn >= lsn {
		e.snap = snapshot{}
	}
}

// promiseOf reads the promise a record of key makes; made is false when the
// record gives no terms.
func promiseOf(key entity.Key, rec Record) (p apology.Promise, made bool) {
	p = apology.Promise{ID: rec.TxnID, Entity: key, TxnID: rec.TxnID, Made: time.Unix(0, rec.Stamp.WallNanos)}
	if len(rec.Ops) > 0 {
		p.Kind, p.Partner, p.Quantity, made = rec.Ops[0].Terms()
	}
	return p, made
}

// promiseRef locates a retained promise record: its entity and LSN.
type promiseRef struct {
	key entity.Key
	lsn uint64
}

// Promises returns the pending promises on key, in the order they were made.
func (db *DB) Promises(key entity.Key) []apology.Promise {
	s := db.shardFor(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if e := s.entry(key); e != nil {
		return s.pendingLocked(nil, key, e)
	}
	return nil
}

// AllPromises returns every pending promise in the store, in the order they
// were made (by LSN).
func (db *DB) AllPromises() []apology.Promise {
	type made struct {
		lsn uint64
		p   apology.Promise
	}
	var all []made
	for _, s := range db.shards {
		s.mu.RLock()
		for _, ref := range s.promised {
			if s.pendingAtLocked(s.entries[ref.key], ref.lsn) {
				rec, _ := s.recordLocked(ref.lsn)
				p, _ := promiseOf(ref.key, rec)
				all = append(all, made{ref.lsn, p})
			}
		}
		s.mu.RUnlock()
	}
	slices.SortFunc(all, func(a, b made) int { return cmp.Compare(a.lsn, b.lsn) })
	out := make([]apology.Promise, len(all))
	for i := range all {
		out[i] = all[i].p
	}
	return out
}

// FindPromise returns promise id, pending or settled, while the store
// retains the record that made it.
func (db *DB) FindPromise(id string) (apology.Promise, bool) {
	for _, s := range db.shards {
		s.mu.RLock()
		ref, ok := s.promised[id]
		rec, _ := s.recordLocked(ref.lsn)
		s.mu.RUnlock()
		if ok {
			p, _ := promiseOf(ref.key, rec)
			return p, true
		}
	}
	return apology.Promise{}, false
}
