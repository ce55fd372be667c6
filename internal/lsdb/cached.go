package lsdb

import (
	"sync/atomic"

	"repro/internal/entity"
)

// cachedState is an entry's materialised current state together with who owns
// it. The rule (docs/CONCURRENCY.md): a cached state belongs to the shard's
// write lock until it is lent; lend is the only way a pointer to it leaves the
// shard; a lent state is never written again. An append therefore applies in
// place to a state nobody was lent and copies one that somebody was.
//
// st is touched in this file only (TestCachedStateOnlyThroughAccessors).
type cachedState struct {
	st *entity.State
	// lent is set by readers holding the shard's read lock, several at once,
	// hence atomic; the write lock orders it against take and install.
	lent atomic.Bool
}

// present reports whether a state is cached. The caller holds the shard lock.
func (c *cachedState) present() bool { return c.st != nil }

// lend returns the cached state (nil when none) for use outside the shard
// lock — a reader, a snapshot, a flush capture — and marks it lent. The
// caller holds at least the shard's read lock.
func (c *cachedState) lend() *entity.State {
	if c.st != nil && !c.lent.Load() { // test first: hot reads share the line
		c.lent.Store(true)
	}
	return c.st
}

// take is the owning accessor, for an append under the shard's write lock. A
// state never lent is detached from the cache and reopened: it is the
// caller's to write in place, and install puts it back. Until then the cache
// is empty, so an append that fails half-way leaves nothing half-applied to
// find; the next read rebuilds from the log. A lent state stays cached and
// comes back as the frozen base of a copy-on-write apply.
func (c *cachedState) take() (st *entity.State, owned bool) {
	st = c.st
	if st == nil || c.lent.Load() {
		return st, false
	}
	c.st = nil
	return st.Reopen(), true
}

// install freezes st and caches it, unlent: the caller, under the shard's
// write lock, hands over the only reference it could write through. The
// write lock keeps lend out, so the mark is read before it is cleared: a
// state never lent — a serial writer's — costs no atomic store, which would
// wait for the append's other stores to drain.
func (c *cachedState) install(st *entity.State) {
	c.st = st.Freeze()
	if c.lent.Load() {
		c.lent.Store(false)
	}
}

// installLent caches a frozen state the shard does not own alone — one a
// snapshot shares, or the archived summary itself — already lent, so an
// append copies it rather than writing through it. The caller holds the
// shard's write lock.
func (c *cachedState) installLent(st *entity.State) {
	c.st = st.Freeze()
	c.lent.Store(true)
}

// drop empties the cache (history was rewritten under it), under the shard's
// write lock.
func (c *cachedState) drop() { c.st = nil }
