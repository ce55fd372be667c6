package lsdb

import (
	"iter"
	"sync"
	"sync/atomic"

	"repro/internal/entity"
	"repro/internal/partition"
	"repro/internal/queue"
)

// Handle is one entity of the store, resolved once: its key, the slot its
// unit queue keeps its mailbox in, and the store's entry for it (records,
// exactly-once index, cached rollup). A process step is delivered through
// its entity's handle — Kernel.Submit and the engine's emit dispatch resolve
// it as the event enters the unit's queue — so the post, the mailbox's
// release and the step's commit to its own entity look no key up.
//
// A handle whose entry holds something is kept for the life of its DB: cold
// eviction and Compact empty an entry's record list, never the entry. One
// whose entry holds nothing — an event's entity not written yet, a write
// refused on a new key — lives while something holds it: each Resolve takes
// a hold, which the queue passes to the entity's mailbox and gives back when
// the mailbox retires (queue.Entity). The last hold given back on an empty
// entry drops the handle from its table, so events for entities never
// written leave nothing behind. Recover and promotion build a new DB with
// new handles. See docs/CONCURRENCY.md, "Entity handles".
type Handle struct {
	queue.Slot              // the entity's key, and its mailbox in its unit's queue
	s          *shard       // the shard whose table holds it
	hash       uint32       // partition.KeyHash(key)
	holds      atomic.Int32 // the holds on it, or handleKept, or handleDropped
	e          entry
}

// A handle's holds count only while its entry is empty. The first write to
// it marks it kept, under the shard's write lock, and a kept handle counts
// nothing and is never dropped; a handle whose last hold is given back while
// it is empty is dropped, and Resolve makes a new one for its key.
const (
	handleKept    = -1
	handleDropped = -2
)

// Owns reports whether h is a handle of this store.
func (db *DB) Owns(h *Handle) bool { return h.s.db == db }

// Entity resolves key to its handle, creating an empty one for a key the
// store has not seen, with a hold on it for the caller: the queue's resolver
// (queue.Options.Entities). It takes no lock.
func (db *DB) Entity(key entity.Key) queue.Entity {
	return db.Resolve(key, partition.KeyHash(key))
}

// Resolve is Entity for a caller that hashed the key already (hash is
// partition.KeyHash(key)). The hold it takes is the caller's to pass to a
// queue.Queue.Post, or to give back with Unhold.
func (db *DB) Resolve(key entity.Key, hash uint32) *Handle {
	s := db.shards[partition.ShardOf(hash, len(db.shards))]
	s.countLookup()
	return s.entries.resolve(s, key, hash, (*Handle).hold)
}

// hold adds a hold on h unless it was dropped.
func (h *Handle) hold() bool {
	for {
		switch n := h.holds.Load(); {
		case n == handleKept:
			return true
		case n == handleDropped:
			return false
		case h.holds.CompareAndSwap(n, n+1):
			return true
		}
	}
}

// keep marks h kept unless it was dropped: its entry is about to hold
// something, for good. The caller holds the shard's write lock.
func (h *Handle) keep() bool {
	for {
		switch n := h.holds.Load(); {
		case n == handleKept:
			return true
		case n == handleDropped:
			return false
		case h.holds.CompareAndSwap(n, handleKept):
			return true
		}
	}
}

// Unhold gives back a hold Resolve took. The last one given back on a handle
// whose entry holds nothing drops the handle. It takes no lock but the
// table's own.
func (h *Handle) Unhold() {
	for {
		switch n := h.holds.Load(); {
		case n == handleKept:
			return
		case n < 1:
			panic("lsdb: Unhold of a handle not held")
		case n > 1:
			if h.holds.CompareAndSwap(n, n-1) {
				return
			}
		case h.holds.CompareAndSwap(1, handleDropped):
			h.s.entries.remove(h)
			return
		}
	}
}

// CountLookups makes every lookup of an entity key in the store's entry
// tables — Resolve's, and a read's or a write's by key — add one to c, and
// with nil stops counting. It is for tests that hold a path to a number of
// key probes; it must not run concurrently with the store's use.
func (db *DB) CountLookups(c *atomic.Uint64) {
	for _, s := range db.shards {
		s.lookups = c
	}
}

// handleTable is a shard's entity index: open addressing over the key's
// hash, linear probing. Lookups and inserts take no lock — a reader loads
// the slot array and the slots atomically, an insert claims an empty slot by
// compare-and-swap — so Resolve can run on the admission path without the
// shard lock, and two inserts of one key meet at the same empty slot (the
// first one in the key's probe sequence), where one wins and the other finds
// it. A dropped handle's slot becomes a tomb, which probes pass over and
// nothing reuses until the array is rebuilt. Growth and removal are
// serialised by grow: the grower marks every empty slot of the old array
// moved (an insert that meets one retries in the new array once it is
// published), copies the live handles — not the tombs — into an array sized
// for them and publishes. The handles themselves never move, so a pointer to
// one stays good while it is held or kept.
//
// A sync.Map, or a map under a read-write lock of its own, would do the
// same with less code; both were slower on the step path, and a sync.Map
// boxes every new key (EXPERIMENTS.md, E19).
type handleTable struct {
	slots atomic.Pointer[handleSlots]
	used  atomic.Int64 // slots of the current array holding a handle or a tomb: at 3/4 it is rebuilt
	grow  sync.Mutex   // serialises growth and removal
}

// handleSlots is one generation of a table's slot array.
type handleSlots struct {
	s     []atomic.Pointer[Handle] // a power of two long
	shift uint                     // 32 - log2(len(s))
}

// moved marks an empty slot of an array that is being replaced; tomb, the
// slot of a dropped handle.
var moved, tomb = new(Handle), new(Handle)

// minHandleSlots is a new shard's table size.
const minHandleSlots = 64

func newHandleSlots(n int) *handleSlots {
	size, shift := minHandleSlots, uint(32-6)
	for size < n {
		size, shift = size*2, shift-1
	}
	return &handleSlots{s: make([]atomic.Pointer[Handle], size), shift: shift}
}

// start is the first slot of hash's probe sequence: Fibonacci hashing, so
// the top bits of the product — which every bit of the hash reaches — pick
// it, not the low bits the shard was picked by.
func (t *handleSlots) start(hash uint32) int { return int((hash * 0x9e3779b1) >> t.shift) }

// reset empties the table, sized for about n handles. It runs only before
// the store is shared: at Open, and when Recover sizes the tables for the
// keys it will load.
func (t *handleTable) reset(n int) {
	t.slots.Store(newHandleSlots(n + n/2))
	t.used.Store(0)
}

// find returns key's handle (hash is partition.KeyHash(key)), or nil.
func (t *handleTable) find(key entity.Key, hash uint32) *Handle {
	return t.lookup(nil, key, hash)
}

// resolve returns key's handle in s, inserting an empty one when there is
// none, once claim — hold or keep — has claimed it. A handle dropped under
// the caller is taken out of the table here too, and the key resolved anew.
func (t *handleTable) resolve(s *shard, key entity.Key, hash uint32, claim func(*Handle) bool) *Handle {
	for {
		h := t.lookup(s, key, hash)
		if claim(h) {
			return h
		}
		t.remove(h)
	}
}

// lookup is find, inserting a new handle of s when s is non-nil.
func (t *handleTable) lookup(s *shard, key entity.Key, hash uint32) *Handle {
	var fresh *Handle
	for {
		slots := t.slots.Load()
		h, done := slots.find(s, key, hash, &fresh)
		if !done {
			t.grow.Lock() // the grower holds grow until the new array is published
			t.grow.Unlock()
			continue
		}
		if h != nil && h == fresh && t.used.Add(1) > int64(len(slots.s))*3/4 {
			t.growFrom(slots)
		}
		return h
	}
}

// find probes one array; done is false when the probe met a moved slot (or
// a full array). *fresh is the handle an insert offers, made on first need
// and offered again on a retry.
func (t *handleSlots) find(s *shard, key entity.Key, hash uint32, fresh **Handle) (h *Handle, done bool) {
	mask := len(t.s) - 1
	for n, i := 0, t.start(hash); n < len(t.s); n, i = n+1, (i+1)&mask {
		h := t.s[i].Load()
		if h == nil {
			if s == nil {
				return nil, true
			}
			if *fresh == nil {
				*fresh = &Handle{Slot: queue.MakeSlot(key), s: s, hash: hash}
			}
			if t.s[i].CompareAndSwap(nil, *fresh) {
				return *fresh, true
			}
			h = t.s[i].Load()
		}
		if h == moved {
			return nil, false
		}
		if h != tomb && h.hash == hash && h.Key() == key {
			return h, true
		}
	}
	// Full: inserts outran the growth their count started; wait for it.
	return nil, false
}

// remove replaces a dropped handle's slot with a tomb, unless it is gone
// already.
func (t *handleTable) remove(h *Handle) {
	t.grow.Lock()
	defer t.grow.Unlock()
	slots := t.slots.Load()
	mask := len(slots.s) - 1
	for n, i := 0, slots.start(h.hash); n < len(slots.s); n, i = n+1, (i+1)&mask {
		switch slots.s[i].Load() {
		case h:
			slots.s[i].Store(tomb)
			return
		case nil:
			return
		}
	}
}

// growFrom replaces slots, unless another grower did already, with an array
// holding the same handles and no tombs, sized for twice the handles so the
// next growth is as far off as ever. Without tombs that doubles the array;
// with them it may keep its size or shrink, so keys resolved and dropped
// over and over cost no slots for good.
func (t *handleTable) growFrom(slots *handleSlots) {
	t.grow.Lock()
	defer t.grow.Unlock()
	if t.slots.Load() != slots {
		return
	}
	// Every empty slot is marked moved first, so no insert lands behind the
	// count; removals wait on grow.
	live := 0
	for i := range slots.s {
		h := slots.s[i].Load()
		for h == nil && !slots.s[i].CompareAndSwap(nil, moved) {
			h = slots.s[i].Load()
		}
		if h != nil && h != tomb {
			live++
		}
	}
	next := newHandleSlots(2 * live)
	mask := len(next.s) - 1
	for i := range slots.s {
		h := slots.s[i].Load()
		if h == moved || h == tomb {
			continue
		}
		j := next.start(h.hash)
		for next.s[j].Load() != nil {
			j = (j + 1) & mask
		}
		next.s[j].Store(h)
	}
	t.used.Store(int64(live))
	t.slots.Store(next)
}

// all yields every entry with its key. The caller holds the shard lock, so
// only Resolve and Unhold can change the table meanwhile: what they add or
// drop is empty, and may or may not be yielded.
func (t *handleTable) all() iter.Seq2[entity.Key, *entry] {
	return func(yield func(entity.Key, *entry) bool) {
		slots := t.slots.Load()
		for i := range slots.s {
			h := slots.s[i].Load()
			if h == nil || h == moved || h == tomb {
				continue
			}
			if !yield(h.Key(), &h.e) {
				return
			}
		}
	}
}

// len returns how many handles the table holds.
func (t *handleTable) len() int {
	n := 0
	for range t.all() {
		n++
	}
	return n
}
