package lsdb

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/entity"
	"repro/internal/queue"
	"repro/internal/storage"
)

// Resolvers racing on a store whose tables grow under them: every key comes
// back as one handle, whoever resolved it first and whichever array it was
// found in, and a table holds each key once.
func TestHandleTableResolvesEachKeyOnce(t *testing.T) {
	const resolvers, keys = 8, 20011 // a prime: each resolver's stride reaches every key
	db := newTestDB(t, Options{Shards: 2})
	got := make([][]*Handle, resolvers)
	var wg sync.WaitGroup
	for r := range resolvers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[r] = make([]*Handle, keys)
			for i := range keys {
				k := (i*(r+1) + r) % keys // in its own order
				got[r][k] = db.Entity(acct(fmt.Sprint(k))).(*Handle)
			}
		}()
	}
	wg.Wait()
	for k := range keys {
		h := got[0][k]
		if h.Key() != acct(fmt.Sprint(k)) {
			t.Fatalf("key %d resolved to %s", k, h.Key())
		}
		for r := 1; r < resolvers; r++ {
			if got[r][k] != h {
				t.Fatalf("key %d resolved to two handles", k)
			}
		}
	}
	n := 0
	for _, s := range db.shards {
		n += s.entries.len()
		for key, e := range s.entries.all() {
			if e != &db.Resolve(key, db.Entity(key).(*Handle).hash).e {
				t.Fatalf("%s: the table yields an entry its lookup does not", key)
			}
		}
	}
	if n != keys {
		t.Fatalf("the tables hold %d handles for %d keys", n, keys)
	}
}

// handles counts the handles in db's tables.
func handles(db *DB) int {
	n := 0
	for _, s := range db.shards {
		n += s.entries.len()
	}
	return n
}

// A write refused on a new key drops the entry it created unless a Resolve
// holds its handle; racing the two leaves one handle for the key while it is
// held, and none once the hold is given back. A written key's handle stays.
func TestRefusedFirstWriteKeepsHeldHandleOnly(t *testing.T) {
	fb := storage.NewFaultBackend(storage.NewMemory())
	db := newTestDB(t, Options{Backend: fb, Shards: 1, RearmAfter: 1})
	written := 0
	for i := range 2000 {
		key := acct(fmt.Sprintf("new-%d", i))
		fb.FailAppends(1)
		var h *Handle
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			h = db.Entity(key).(*Handle)
		}()
		err := deposit(t, db, key, 1, fmt.Sprintf("t%d", i))
		wg.Wait()
		if err != nil && !errors.Is(err, ErrDegraded) {
			t.Fatal(err)
		}
		again := db.Entity(key).(*Handle)
		if again != h {
			t.Fatalf("%s: resolved to two handles", key)
		}
		if err != nil && db.Exists(key) {
			t.Fatalf("%s: a refused first write left the entity readable", key)
		}
		again.Unhold()
		h.Unhold()
		if err == nil {
			written++
		}
		if n := handles(db); n != written {
			t.Fatalf("%s (write error %v): the table holds %d handles once the holds are given back, want the %d written", key, err, n, written)
		}
	}
	before := handles(db)
	if _, err := db.Append(acct("never-resolved"), []entity.Op{entity.Delta("balance", 1)}, stamp(1), "n", "x"); err != nil {
		t.Fatal(err)
	}
	fb.FailAppends(1)
	if err := deposit(t, db, acct("refused"), 1, "y"); !errors.Is(err, ErrDegraded) {
		t.Fatalf("append against a full disk: %v, want ErrDegraded", err)
	}
	if got := handles(db); got != before+1 {
		t.Fatalf("the table holds %d handles, want %d: a written key keeps one, a refused write on a key nobody holds none", got, before+1)
	}
}

// Events for entities never written — a step that writes nothing, a shed
// post, a write refused after the entity's event resolved its handle — leave
// no handle behind once their mailboxes retire, however many keys they name.
func TestUnwrittenEntitiesLeaveNoHandles(t *testing.T) {
	fb := storage.NewFaultBackend(storage.NewMemory())
	db := newTestDB(t, Options{Backend: fb, Shards: 4, RearmAfter: 1})
	if _, err := db.Append(acct("written"), []entity.Op{entity.Delta("balance", 1)}, stamp(1), "n", "w"); err != nil {
		t.Fatal(err)
	}
	base := handles(db)
	const keys = 3000
	q := queue.New("u", queue.Options{Entities: db.Entity, MaxDepth: keys / 2})
	shed := 0
	for i := range keys {
		key := acct(fmt.Sprintf("k-%d", i))
		// Posted twice: the second post finds the mailbox and gives its
		// hold back at once.
		for range 2 {
			if _, err := q.Post("t", &queue.Event{Name: "e", Entity: key}, 0, db.Entity(key), false); errors.Is(err, queue.ErrOverloaded) {
				shed++
			} else if err != nil {
				t.Fatal(err)
			}
		}
	}
	if shed == 0 || handles(db) >= base+keys {
		t.Fatalf("%d posts shed, %d handles: the shed posts should have left none", shed, handles(db))
	}
	for n := 0; ; n++ {
		mb, m := q.TryClaim("")
		if mb == nil {
			break
		}
		if n%3 == 0 { // a step whose write the disk refuses
			h := mb.Entity().(*Handle)
			fb.FailAppends(1)
			if err := db.AppendTo(h, h.Key(), []entity.Op{entity.Delta("balance", 1)}, stamp(2), "n", fmt.Sprint("r", m.ID), nil); !errors.Is(err, ErrDegraded) {
				t.Fatalf("append against a full disk: %v, want ErrDegraded", err)
			}
		}
		for m != nil {
			mb.Ack()
			m = mb.Next()
		}
		mb.Release()
	}
	if got := handles(db); got != base {
		t.Fatalf("the tables hold %d handles after every mailbox retired, want the %d of the written entities", got, base)
	}
	if !db.Exists(acct("written")) {
		t.Fatal("the written entity went with the others")
	}
}

// Producers post to a few keys while consumers drain them and now and then
// write one: handles are dropped and made anew under the posts, and still no
// key ever has two mailboxes (two owners at once), every message is
// delivered once, and what is left is the written keys' handles.
func TestHandleDropsRaceResolves(t *testing.T) {
	const keys, posts, producers, consumers = 64, 5000, 2, 2
	db := newTestDB(t, Options{Shards: 2})
	q := queue.New("u", queue.Options{Entities: db.Entity})
	var delivered atomic.Int64
	var mu sync.Mutex
	owned, written := map[entity.Key]bool{}, map[entity.Key]bool{}
	var wg sync.WaitGroup
	for p := range producers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range posts {
				key := acct(fmt.Sprint("k", (i+p)%keys))
				if _, err := q.Post("t", &queue.Event{Name: "e", Entity: key}, 0, db.Entity(key), false); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for range consumers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for delivered.Load() < producers*posts {
				mb, m := q.TryClaim("")
				if mb == nil {
					runtime.Gosched()
					continue
				}
				key := mb.Key()
				mu.Lock()
				if owned[key] {
					t.Errorf("%s: two owners at once", key)
				}
				owned[key] = true
				mu.Unlock()
				for ; m != nil; m = mb.Next() {
					if m.ID%997 == 0 {
						h := mb.Entity().(*Handle)
						if err := db.AppendTo(h, key, []entity.Op{entity.Delta("balance", 1)}, stamp(1), "n", fmt.Sprint("w", m.ID), nil); err != nil {
							t.Error(err)
						}
						mu.Lock()
						written[key] = true
						mu.Unlock()
					}
					delivered.Add(1)
					mb.Ack()
				}
				mu.Lock()
				owned[key] = false
				mu.Unlock()
				mb.Release()
			}
		}()
	}
	wg.Wait()
	if got := delivered.Load(); got != producers*posts {
		t.Fatalf("%d messages delivered, want %d", got, producers*posts)
	}
	if got := handles(db); got != len(written) {
		t.Fatalf("the tables hold %d handles, want the %d written keys'", got, len(written))
	}
}

// Keys resolved and dropped over and over leave tombs, which the table's
// rebuilds throw away: its slot array stays the size its live handles need.
func TestDroppedHandlesCostNoSlots(t *testing.T) {
	db := newTestDB(t, Options{Shards: 1})
	for i := range 10 {
		db.Entity(acct(fmt.Sprint("live-", i))) // held for good
	}
	for i := range 100000 {
		db.Entity(acct(fmt.Sprint("gone-", i))).Unhold()
	}
	if got := handles(db); got != 10 {
		t.Fatalf("the table holds %d handles, want the 10 held", got)
	}
	if n := len(db.shards[0].entries.slots.Load().s); n > 4*minHandleSlots {
		t.Fatalf("the slot array is %d long after 100000 dropped keys, for 10 live handles", n)
	}
}
