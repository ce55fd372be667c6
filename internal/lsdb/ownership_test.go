package lsdb

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/entity"
	"repro/internal/storage"
)

// The ownership rule of the cached rollup (cached.go, docs/CONCURRENCY.md):
// an append writes a cached state in place exactly when nobody was lent it.
// These tests pin both halves — a state that left the shard through any
// lending path never changes afterwards, however many appends follow, and an
// append that fails after writing in place leaves nothing half-applied.

// peek is the tests' look at the cached state without lending it.
func (c *cachedState) peek() *entity.State { return c.st }

// image renders everything observable about a state; a state that was lent
// must render the same for good.
func image(st *entity.State) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %v deleted=%v tentative=%v", st.Key, st.Fields, st.Deleted, st.Tentative)
	for _, col := range st.Collections() {
		fmt.Fprintf(&b, " %s=%v", col, st.Children(col))
	}
	return b.String()
}

// churn makes n appends to key that touch the root fields, rows a lent state
// shares chunks with, and new rows. ids continue from *next.
func churn(t *testing.T, db *DB, key entity.Key, next *int, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		*next++
		ops := []entity.Op{
			entity.Set("status", fmt.Sprintf("S%d", *next)),
			entity.Delta("total", 1),
			entity.InsertChild("lineitems", fmt.Sprintf("L%d", *next), entity.Fields{"product": "widget", "qty": *next}),
			entity.SetChildField("lineitems", "L1", "qty", *next),
		}
		if _, err := db.Append(key, ops, stamp(int64(*next)), "n", fmt.Sprintf("n-txn-%d", *next)); err != nil {
			t.Fatalf("append %d: %v", *next, err)
		}
	}
}

func TestLentStateNeverChanges(t *testing.T) {
	order := entity.Key{Type: "Order", ID: "O1"}
	paths := []struct {
		name string
		lend func(t *testing.T, db *DB, next *int) *entity.State
	}{
		{"current-hit", func(t *testing.T, db *DB, _ *int) *entity.State {
			st, _, err := db.Current(order)
			if err != nil {
				t.Fatal(err)
			}
			return st
		}},
		{"current-after-rebuild", func(t *testing.T, db *DB, next *int) *entity.State {
			if _, err := db.AppendTentative(order, []entity.Op{entity.Delta("total", 100)}, stamp(int64(*next)), "n", "promise"); err != nil {
				t.Fatal(err)
			}
			if err := db.MarkObsolete(order, "promise"); err != nil { // drops the cached state
				t.Fatal(err)
			}
			st, _, err := db.Current(order)
			if err != nil {
				t.Fatal(err)
			}
			return st
		}},
		{"scan", func(t *testing.T, db *DB, _ *int) *entity.State {
			var got *entity.State
			if err := db.Scan("Order", func(st *entity.State) bool { got = st; return false }); err != nil || got == nil {
				t.Fatalf("Scan: %v, %v", got, err)
			}
			return got
		}},
		{"as-of", func(t *testing.T, db *DB, next *int) *entity.State {
			st, err := db.AsOf(order, stamp(int64(*next)))
			if err != nil {
				t.Fatal(err)
			}
			return st
		}},
		{"snapshot-every", func(t *testing.T, db *DB, next *int) *entity.State {
			e := db.shardFor(order).entry(order)
			for at := e.snap.lsn; e.snap.lsn == at; {
				churn(t, db, order, next, 1)
			}
			if e.snap.state != e.cache.peek() {
				t.Fatal("the automatic snapshot does not share the cached state; this path tests nothing")
			}
			return e.snap.state
		}},
	}
	for _, p := range paths {
		t.Run(fmt.Sprintf(perAppend+"/%s", p.name), func(t *testing.T) {
			db := newTestDB(t, Options{SnapshotEvery: 5, Shards: 2})
			next := 0
			churn(t, db, order, &next, 70) // more than one chunk of rows
			st := p.lend(t, db, &next)
			want := image(st)
			churn(t, db, order, &next, 64)
			if got := image(st); got != want {
				t.Fatalf("a lent state changed under its holder:\nwas %s\nnow %s", want, got)
			}
			// And what the store serves is the log's rollup, not the loan.
			cur, _, err := db.Current(order)
			if err != nil || cur.Float("total") != float64(next) {
				t.Fatalf("current total %v (%v) after %d appends", cur.Float("total"), err, next)
			}
		})
	}
}

// An append to a state nobody was lent writes it where it is; one to a lent
// state leaves that state alone and installs a copy, which is unlent again.
func TestAppendWritesInPlaceUnlessLent(t *testing.T) {
	t.Run(perAppend, func(t *testing.T) {
		db := newTestDB(t, Options{})
		key := acct("hot")
		e := func() *entry { return db.shardFor(key).entry(key) }
		for i := 1; i <= 3; i++ {
			if err := deposit(t, db, key, i, fmt.Sprintf("n-txn-%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		owned := e().cache.peek()
		if err := deposit(t, db, key, 4, "n-txn-4"); err != nil {
			t.Fatal(err)
		}
		if e().cache.peek() != owned || !owned.Frozen() || owned.Float("balance") != 4 {
			t.Fatalf("an unlent state was not updated in place (same object: %v, frozen: %v, balance %v)", e().cache.peek() == owned, owned.Frozen(), owned.Float("balance"))
		}
		lent, _, _ := db.Current(key)
		if lent != owned {
			t.Fatal("Current did not hand out the cached state")
		}
		if err := deposit(t, db, key, 5, "n-txn-5"); err != nil {
			t.Fatal(err)
		}
		fresh := e().cache.peek()
		if fresh == lent || lent.Float("balance") != 4 || fresh.Float("balance") != 5 {
			t.Fatalf("an append wrote a lent state (same object: %v, lent balance %v, cached %v)", fresh == lent, lent.Float("balance"), fresh.Float("balance"))
		}
		if err := deposit(t, db, key, 6, "n-txn-6"); err != nil {
			t.Fatal(err)
		}
		if e().cache.peek() != fresh || fresh.Float("balance") != 6 {
			t.Fatal("the copy made for a lent state did not start out unlent")
		}
	})
}

// Readers and writers of one entity at once (run under -race): whatever a
// reader is handed it can keep reading while appends go on, some of them in
// place on the state that replaced it.
func TestLentStateUnderConcurrentAppends(t *testing.T) {
	t.Run(perAppend, func(t *testing.T) {
		db := newTestDB(t, Options{SnapshotEvery: 8})
		order := entity.Key{Type: "Order", ID: "O1"}
		next := 0
		churn(t, db, order, &next, 4)
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					st, _, err := db.Current(order)
					if err != nil {
						t.Error(err)
						return
					}
					was := image(st)
					runtime.Gosched()
					if now := image(st); now != was {
						t.Errorf("a lent state changed under its reader:\nwas %s\nnow %s", was, now)
						return
					}
				}
			}()
		}
		churn(t, db, order, &next, 400)
		close(stop)
		wg.Wait()
		if cur, _, _ := db.Current(order); cur.Float("total") != float64(next) {
			t.Fatalf("total %v after %d appends", cur.Float("total"), next)
		}
	})
}

// Nothing outside cached.go touches cachedState.st: every read of the cached
// state goes through lend or take, every write through install or drop.
func TestCachedStateOnlyThroughAccessors(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	direct := regexp.MustCompile(`\.(st|lent)\b`) // the two field selectors, whatever holds the value
	for _, f := range files {
		if f == "cached.go" || strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			if direct.MatchString(line) {
				t.Errorf("%s:%d reaches into the cached state: %s", f, i+1, strings.TrimSpace(line))
			}
		}
		if strings.Contains(string(src), "cachedState{") {
			t.Errorf("%s builds a cachedState by hand", f)
		}
	}
}

// A failed append that had already written in place — a strict op-set that
// fails at its second op, a record the backend refuses — leaves Current,
// History and the next append as if it had never been tried.
func TestFailedInPlaceAppendLeavesNoTrace(t *testing.T) {
	failures := []struct {
		name string
		fail func(t *testing.T, db *DB, fb *storage.FaultBackend, key entity.Key)
	}{
		{"strict-second-op", func(t *testing.T, db *DB, _ *storage.FaultBackend, key entity.Key) {
			ops := []entity.Op{entity.Delta("balance", 1000), entity.Set("no-such-field", 1)}
			if _, err := db.Append(key, ops, stamp(50), "n", "n-txn-50"); !errors.Is(err, entity.ErrUnknownField) {
				t.Fatalf("strict append with a bad second op: %v, want ErrUnknownField", err)
			}
		}},
		{"backend-refusal", func(t *testing.T, db *DB, fb *storage.FaultBackend, key entity.Key) {
			fb.FailAppends(1)
			if err := deposit(t, db, key, 50, "n-txn-50"); !errors.Is(err, ErrDegraded) {
				t.Fatalf("append against a full disk: %v, want ErrDegraded", err)
			}
			time.Sleep(time.Millisecond) // past RearmAfter: the next append probes
		}},
	}
	for _, lent := range []bool{false, true} {
		for _, f := range failures {
			t.Run(fmt.Sprintf(perAppend+"/lent=%v/%s", lent, f.name), func(t *testing.T) {
				fb := storage.NewFaultBackend(storage.NewMemory())
				db := newTestDB(t, Options{Backend: fb, Validation: entity.Strict, RearmAfter: time.Nanosecond})
				key := acct("A")
				const seeded = 5
				for i := 1; i <= seeded; i++ {
					if err := deposit(t, db, key, i, fmt.Sprintf("n-txn-%d", i)); err != nil {
						t.Fatal(err)
					}
				}
				if lent {
					db.Current(key)
				}
				hist, err := db.History(key)
				if err != nil {
					t.Fatal(err)
				}
				wantHist := fmt.Sprint(hist.Trace())

				f.fail(t, db, fb, key)

				st, head, err := db.Current(key)
				if err != nil || st.Float("balance") != seeded || head != seeded || len(st.Fields) != 1 {
					t.Fatalf("after the failure: %v at LSN %d (%v), want balance %d at %d", st.Fields, head, err, seeded, seeded)
				}
				if hist, _ := db.History(key); fmt.Sprint(hist.Trace()) != wantHist {
					t.Fatalf("history changed:\nwas %s\nnow %v", wantHist, hist.Trace())
				}
				// The id was never taken, the LSN never consumed.
				res, err := db.Append(key, []entity.Op{entity.Delta("balance", 1)}, stamp(60), "n", "n-txn-50")
				if err != nil || res.Record.LSN != seeded+1 {
					t.Fatalf("retry: %v, LSN %v", err, res.Record)
				}
				if st, _, _ := db.Current(key); st.Float("balance") != seeded+1 {
					t.Fatalf("balance %v after one more deposit, want %d", st.Float("balance"), seeded+1)
				}
				assertTxnIndexMatchesLog(t, db)
			})
		}
	}
}

// faultTiered is a tiered store whose log appends go through a FaultBackend
// and whose table writes the test can step into.
type faultTiered struct {
	storage.Tiered
	log     *storage.FaultBackend
	onFlush func(entries []storage.WALRecord)
}

func (f *faultTiered) AppendBatch(recs []storage.WALRecord) error { return f.log.AppendBatch(recs) }
func (f *faultTiered) FlushTable(entries []storage.WALRecord, watermark, boundary uint64) error {
	f.onFlush(entries)
	return f.Tiered.FlushTable(entries, watermark, boundary)
}

// The flush capture ships the cached state zero-copy and serialises it after
// the shard lock is gone. Appends that land in between — some refused by the
// disk — must not reach the summary being written: the table holds the state
// as captured, and a store recovered from it agrees with the live one.
func TestFlushCaptureIsLentMidStream(t *testing.T) {
	dir := t.TempDir()
	store := openTestTiered(t, dir, nil)
	ft := &faultTiered{Tiered: store, log: storage.NewFaultBackend(store)}
	db := newTestDB(t, Options{Backend: ft, Shards: 2, FlushBytes: -1, RearmAfter: time.Nanosecond})
	order := entity.Key{Type: "Order", ID: "O1"}
	next := 0
	churn(t, db, order, &next, 70)
	captured := 0
	ft.onFlush = func(entries []storage.WALRecord) {
		var sum *entity.State
		for _, rec := range entries {
			if rec.Kind == storage.KindSummary && rec.Key == order {
				sum = rec.Summary
			}
		}
		if sum == nil {
			t.Error("the flush captured no summary of the order")
			return
		}
		captured++
		want := image(sum)
		ft.log.FailAppends(1)
		if _, err := db.Append(order, []entity.Op{entity.Delta("total", 1000)}, stamp(1), "n", "refused"); !errors.Is(err, ErrDegraded) {
			t.Errorf("append against a full disk: %v, want ErrDegraded", err)
		}
		time.Sleep(time.Millisecond) // past RearmAfter
		churn(t, db, order, &next, 64)
		if got := image(sum); got != want {
			t.Errorf("the summary changed between capture and table write:\nwas %s\nnow %s", want, got)
		}
	}
	if err := db.flush.FlushNow(); err != nil {
		t.Fatal(err)
	}
	if captured != 1 {
		t.Fatalf("%d flush captures, want 1", captured)
	}
	ft.onFlush = func([]storage.WALRecord) {}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := openTestTiered(t, dir, nil)
	rec, err := Recover(Options{Node: "test-node", Backend: reopened, Shards: 2, FlushBytes: -1}, accountType(), orderType())
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	assertTieredStates(t, db, rec)
}

// TestColdReadCachesArchivedByPointer: a read that warms an evicted entity
// caches the archived summary itself, lent, instead of a Clone of it beside
// it; the appends that follow copy it and leave it byte for byte as it was;
// and History and the flush capture read the same as they would have.
func TestColdReadCachesArchivedByPointer(t *testing.T) {
	dir := t.TempDir()
	db := newTestDB(t, Options{Shards: 2, Backend: openTestTiered(t, dir, nil)})
	defer db.Close()
	order := entity.Key{Type: "Order", ID: "O1"}
	next := 0
	churn(t, db, order, &next, 70) // root fields and more than one chunk of rows
	db.Compact(db.HeadLSN() + 1)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	e := db.shardFor(order).entry(order)
	if !e.cold {
		t.Fatalf("entity not evicted: %+v", db.FlushStats())
	}

	st, _, err := db.Current(order)
	if err != nil {
		t.Fatal(err)
	}
	archived := e.archived
	if archived == nil || st != archived || e.cache.peek() != archived {
		t.Fatal("the cold read cached a copy of the archived summary, not the summary")
	}
	encode := func() []byte {
		b, err := storage.EncodeRecord(nil, &storage.WALRecord{Kind: storage.KindSummary, Key: order, Summary: archived})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	before, view := encode(), image(archived)

	churn(t, db, order, &next, 10)
	if e.archived != archived || !bytes.Equal(encode(), before) || image(archived) != view {
		t.Fatal("an append after the cold read wrote into the archived summary")
	}
	cur, _, err := db.Current(order)
	if err != nil || cur == archived || cur.Float("total") != float64(next) {
		t.Fatalf("current total %v (%v) after %d appends", cur.Float("total"), err, next)
	}
	h, err := db.History(order)
	if err != nil || len(h.Versions) != 10 || h.Versions[9].State.Float("total") != float64(next) {
		t.Fatalf("history after the cold read: %d versions (%v)", len(h.Versions), err)
	}

	// The flush captures the appended state; evicted and warmed again, the
	// entity reads as it was written.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Compact(db.HeadLSN() + 1)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if !e.cold {
		t.Fatalf("entity not evicted the second time: %+v", db.FlushStats())
	}
	again, _, err := db.Current(order)
	if err != nil || image(again) != image(cur) || again != e.archived {
		t.Fatalf("after flush, eviction and a second cold read:\n got %s (%v)\nwant %s", image(again), err, image(cur))
	}
}
