package lsdb

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/clock"
	"repro/internal/entity"
	"repro/internal/storage"
)

func accountType() *entity.Type {
	return &entity.Type{
		Name: "Account",
		Fields: []entity.Field{
			{Name: "owner", Type: entity.String},
			{Name: "balance", Type: entity.Float},
		},
	}
}

func orderType() *entity.Type {
	return &entity.Type{
		Name: "Order",
		Fields: []entity.Field{
			{Name: "status", Type: entity.String},
			{Name: "total", Type: entity.Float},
		},
		Children: []entity.ChildCollection{
			{Name: "lineitems", Fields: []entity.Field{
				{Name: "product", Type: entity.String},
				{Name: "qty", Type: entity.Int},
			}},
		},
	}
}

// allKeys returns the keys of every existing entity of a registered type,
// by type, then by ID.
func allKeys(db *DB) []entity.Key {
	var out []entity.Key
	for _, typ := range db.Types() {
		out = append(out, db.KeysOfType(typ)...)
	}
	return out
}

func newTestDB(t testing.TB, opts Options) *DB {
	t.Helper()
	if opts.Node == "" {
		opts.Node = "test-node"
	}
	db := Open(opts)
	if err := db.RegisterType(accountType()); err != nil {
		t.Fatalf("RegisterType: %v", err)
	}
	if err := db.RegisterType(orderType()); err != nil {
		t.Fatalf("RegisterType: %v", err)
	}
	return db
}

// perAppend names the subtest level of the suites that once also ran a
// batched commit path; the name is kept so their subtest ids stay stable.
const perAppend = "group=false"

func stamp(n int64) clock.Timestamp {
	return clock.Timestamp{WallNanos: n, Node: "test-node"}
}

func TestAppendAndCurrent(t *testing.T) {
	db := newTestDB(t, Options{})
	key := entity.Key{Type: "Account", ID: "A1"}
	res, err := db.Append(key, []entity.Op{entity.Set("owner", "alice"), entity.Delta("balance", 100)}, stamp(1), "n1", "t1")
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if res.Record.LSN != 1 {
		t.Fatalf("LSN = %d, want 1", res.Record.LSN)
	}
	st, head, err := db.Current(key)
	if err != nil {
		t.Fatalf("Current: %v", err)
	}
	if head != 1 || st.StringField("owner") != "alice" {
		t.Fatalf("Current = %+v head=%d", st.Fields, head)
	}
}

func TestAppendUnknownType(t *testing.T) {
	db := newTestDB(t, Options{})
	_, err := db.Append(entity.Key{Type: "Nope", ID: "1"}, nil, stamp(1), "n1", "")
	if !errors.Is(err, ErrUnknownType) {
		t.Fatalf("want ErrUnknownType, got %v", err)
	}
}

func TestCurrentNotFound(t *testing.T) {
	db := newTestDB(t, Options{})
	_, _, err := db.Current(entity.Key{Type: "Account", ID: "missing"})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if db.Exists(entity.Key{Type: "Account", ID: "missing"}) {
		t.Fatal("Exists false positive")
	}
}

func TestRegisterInvalidType(t *testing.T) {
	db := Open(Options{Node: "n"})
	if err := db.RegisterType(&entity.Type{Name: ""}); err == nil {
		t.Fatal("invalid type accepted")
	}
}

func TestAppendIdempotenceByTxnID(t *testing.T) {
	db := newTestDB(t, Options{})
	key := entity.Key{Type: "Account", ID: "A1"}
	ops := []entity.Op{entity.Delta("balance", 50)}
	if _, err := db.Append(key, ops, stamp(1), "n1", "txn-dup"); err != nil {
		t.Fatalf("first append: %v", err)
	}
	_, err := db.Append(key, ops, stamp(2), "n1", "txn-dup")
	if !errors.Is(err, ErrDuplicateTxn) {
		t.Fatalf("want ErrDuplicateTxn, got %v", err)
	}
	st, _, _ := db.Current(key)
	if st.Float("balance") != 50 {
		t.Fatalf("duplicate delivery changed state: %v", st.Float("balance"))
	}
	// Empty txn ids never collide.
	if _, err := db.Append(key, ops, stamp(3), "n1", ""); err != nil {
		t.Fatalf("append without txn id: %v", err)
	}
	if _, err := db.Append(key, ops, stamp(4), "n1", ""); err != nil {
		t.Fatalf("second append without txn id: %v", err)
	}
}

func TestRollupAccumulatesDeltas(t *testing.T) {
	db := newTestDB(t, Options{})
	key := entity.Key{Type: "Account", ID: "A1"}
	for i := 1; i <= 10; i++ {
		if _, err := db.Append(key, []entity.Op{entity.Delta("balance", 10)}, stamp(int64(i)), "n1", fmt.Sprintf("t%d", i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	st, head, err := db.Current(key)
	if err != nil {
		t.Fatalf("Current: %v", err)
	}
	if st.Float("balance") != 100 || head != 10 {
		t.Fatalf("balance = %v head = %d", st.Float("balance"), head)
	}
}

func TestSnapshotCacheMatchesFullReplay(t *testing.T) {
	withSnap := newTestDB(t, Options{SnapshotEvery: 4})
	noSnap := newTestDB(t, Options{})
	key := entity.Key{Type: "Account", ID: "A1"}
	for i := 1; i <= 25; i++ {
		ops := []entity.Op{entity.Delta("balance", float64(i))}
		if i%5 == 0 {
			ops = append(ops, entity.Set("owner", fmt.Sprintf("owner-%d", i)))
		}
		if _, err := withSnap.Append(key, ops, stamp(int64(i)), "n1", ""); err != nil {
			t.Fatal(err)
		}
		if _, err := noSnap.Append(key, ops, stamp(int64(i)), "n1", ""); err != nil {
			t.Fatal(err)
		}
	}
	a, _, _ := withSnap.Current(key)
	b, _, _ := noSnap.Current(key)
	if a.Float("balance") != b.Float("balance") || a.StringField("owner") != b.StringField("owner") {
		t.Fatalf("snapshotted rollup diverged: %v/%v vs %v/%v",
			a.Float("balance"), a.StringField("owner"), b.Float("balance"), b.StringField("owner"))
	}
}

func TestAsOf(t *testing.T) {
	db := newTestDB(t, Options{})
	key := entity.Key{Type: "Order", ID: "O1"}
	db.Append(key, []entity.Op{entity.Set("status", "OPEN")}, stamp(100), "n1", "")
	db.Append(key, []entity.Op{entity.Set("status", "PAID")}, stamp(200), "n1", "")
	db.Append(key, []entity.Op{entity.Set("status", "SHIPPED")}, stamp(300), "n1", "")
	st, err := db.AsOf(key, clock.Timestamp{WallNanos: 250, Node: "z"})
	if err != nil {
		t.Fatalf("AsOf: %v", err)
	}
	if st.StringField("status") != "PAID" {
		t.Fatalf("AsOf(250) = %q, want PAID", st.StringField("status"))
	}
	if _, err := db.AsOf(key, clock.Timestamp{WallNanos: 50, Node: "z"}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("AsOf before first record should be ErrNotFound, got %v", err)
	}
	if _, err := db.AsOf(entity.Key{Type: "Nope", ID: "1"}, stamp(1)); !errors.Is(err, ErrUnknownType) {
		t.Fatal("AsOf unknown type should fail")
	}
	if _, err := db.AsOf(entity.Key{Type: "Order", ID: "missing"}, stamp(1)); !errors.Is(err, ErrNotFound) {
		t.Fatal("AsOf missing key should fail")
	}
}

func TestTentativeAndMarkObsolete(t *testing.T) {
	db := newTestDB(t, Options{SnapshotEvery: 2})
	key := entity.Key{Type: "Account", ID: "A1"}
	db.Append(key, []entity.Op{entity.Delta("balance", 100)}, stamp(1), "n1", "t1")
	if _, err := db.AppendTentative(key, []entity.Op{entity.Delta("balance", -30).Described("tentative reservation")}, stamp(2), "n1", "t2"); err != nil {
		t.Fatalf("AppendTentative: %v", err)
	}
	st, _, _ := db.Current(key)
	if st.Float("balance") != 70 || !st.Tentative {
		t.Fatalf("tentative rollup = %v tentative=%v", st.Float("balance"), st.Tentative)
	}
	// Withdraw the promise: the record becomes obsolete and the rollup
	// excludes it, but history still shows it.
	if err := db.MarkObsolete(key, "t2"); err != nil {
		t.Fatalf("MarkObsolete: %v", err)
	}
	st, _, _ = db.Current(key)
	if st.Float("balance") != 100 {
		t.Fatalf("balance after obsolete = %v, want 100", st.Float("balance"))
	}
	h, err := db.History(key)
	if err != nil {
		t.Fatalf("History: %v", err)
	}
	if h.Len() != 2 {
		t.Fatalf("history should keep obsolete record, len=%d", h.Len())
	}
	if !h.Versions[1].Obsolete {
		t.Fatal("second version should be obsolete")
	}
	if err := db.MarkObsolete(key, "no-such-txn"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("MarkObsolete missing txn: %v", err)
	}
}

func TestHistoryReconstruction(t *testing.T) {
	db := newTestDB(t, Options{})
	key := entity.Key{Type: "Order", ID: "O1"}
	db.Append(key, []entity.Op{entity.Set("status", "OPEN"), entity.InsertChild("lineitems", "L1", entity.Fields{"product": "widget", "qty": 2})}, stamp(1), "n1", "t1")
	db.Append(key, []entity.Op{entity.Set("status", "PAID")}, stamp(2), "n1", "t2")
	h, err := db.History(key)
	if err != nil {
		t.Fatalf("History: %v", err)
	}
	if h.Len() != 2 {
		t.Fatalf("history len = %d", h.Len())
	}
	if h.Versions[0].State.StringField("status") != "OPEN" {
		t.Fatalf("v1 status = %q", h.Versions[0].State.StringField("status"))
	}
	if h.Versions[1].State.StringField("status") != "PAID" {
		t.Fatalf("v2 status = %q", h.Versions[1].State.StringField("status"))
	}
	if !h.ContainsTxn("t1") || h.ContainsTxn("zzz") {
		t.Fatal("ContainsTxn wrong")
	}
	if _, err := db.History(entity.Key{Type: "Order", ID: "missing"}); !errors.Is(err, ErrNotFound) {
		t.Fatal("History of missing entity should fail")
	}
	if _, err := db.History(entity.Key{Type: "Nope", ID: "1"}); !errors.Is(err, ErrUnknownType) {
		t.Fatal("History of unknown type should fail")
	}
}

func TestRecordsAfterAndFor(t *testing.T) {
	db := newTestDB(t, Options{SegmentSize: 3})
	a := entity.Key{Type: "Account", ID: "A"}
	b := entity.Key{Type: "Account", ID: "B"}
	for i := 1; i <= 8; i++ {
		key := a
		if i%2 == 0 {
			key = b
		}
		db.Append(key, []entity.Op{entity.Delta("balance", 1)}, stamp(int64(i)), "n1", "")
	}
	recs := db.RecordsAfterN(5, 0)
	if len(recs) != 3 {
		t.Fatalf("RecordsAfterN(5, 0) = %d records, want 3", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].LSN <= recs[i-1].LSN {
			t.Fatal("RecordsAfterN not in LSN order")
		}
	}
	if got := len(db.RecordsAfterN(0, 0)); got != 8 {
		t.Fatalf("RecordsAfterN(0, 0) = %d, want 8", got)
	}
	if got := len(db.RecordsAfterN(100, 0)); got != 0 {
		t.Fatalf("RecordsAfterN(100, 0) = %d, want 0", got)
	}
	forA := db.RecordsFor(a)
	if len(forA) != 4 {
		t.Fatalf("RecordsFor(A) = %d, want 4", len(forA))
	}
	if db.HeadLSN() != 8 || db.Len() != 8 {
		t.Fatalf("HeadLSN=%d Len=%d", db.HeadLSN(), db.Len())
	}
}

func TestSegmentSealing(t *testing.T) {
	db := newTestDB(t, Options{SegmentSize: 2})
	key := entity.Key{Type: "Account", ID: "A"}
	for i := 1; i <= 7; i++ {
		db.Append(key, []entity.Op{entity.Delta("balance", 1)}, stamp(int64(i)), "n1", "")
	}
	st, _, _ := db.Current(key)
	if st.Float("balance") != 7 {
		t.Fatalf("balance across segments = %v", st.Float("balance"))
	}
	if db.Len() != 7 {
		t.Fatalf("Len = %d", db.Len())
	}
}

func TestKeysAndScan(t *testing.T) {
	db := newTestDB(t, Options{})
	db.Append(entity.Key{Type: "Account", ID: "A"}, []entity.Op{entity.Delta("balance", 1)}, stamp(1), "n1", "")
	db.Append(entity.Key{Type: "Account", ID: "B"}, []entity.Op{entity.Delta("balance", 2)}, stamp(2), "n1", "")
	db.Append(entity.Key{Type: "Order", ID: "O1"}, []entity.Op{entity.Set("status", "OPEN")}, stamp(3), "n1", "")
	if got := len(allKeys(db)); got != 3 {
		t.Fatalf("Keys = %d, want 3", got)
	}
	if got := len(db.KeysOfType("Account")); got != 2 {
		t.Fatalf("KeysOfType(Account) = %d, want 2", got)
	}
	var total float64
	err := db.Scan("Account", func(st *entity.State) bool {
		total += st.Float("balance")
		return true
	})
	if err != nil || total != 3 {
		t.Fatalf("Scan: err=%v total=%v", err, total)
	}
	// Early termination.
	count := 0
	db.Scan("Account", func(*entity.State) bool { count++; return false })
	if count != 1 {
		t.Fatalf("Scan did not stop early: %d", count)
	}
	if err := db.Scan("Nope", func(*entity.State) bool { return true }); !errors.Is(err, ErrUnknownType) {
		t.Fatal("Scan of unknown type should fail")
	}
	if len(db.Types()) != 2 {
		t.Fatalf("Types = %v", db.Types())
	}
	if _, ok := db.TypeOf("Account"); !ok {
		t.Fatal("TypeOf missed registered type")
	}
}

// The type table is published copy-on-write, so TypeOf takes no lock.
// Appends, reads and TypeOf run while RegisterType keeps adding types (under
// -race): a registered type never goes missing, and a type once seen stays.
func TestLockFreeRoutingUnderRegisterType(t *testing.T) {
	db := newTestDB(t, Options{Shards: 4})
	const extra = 200
	var registered atomic.Int32
	var readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				seen := int(registered.Load())
				names := []string{"Account", "Order"}
				if seen > 0 {
					names = append(names, fmt.Sprintf("T%d", seen-1))
				}
				for _, name := range names {
					if _, ok := db.TypeOf(name); !ok {
						t.Errorf("TypeOf(%s) missed a registered type", name)
						return
					}
				}
				if got := len(db.Types()); got < 2+seen {
					t.Errorf("Types() has %d names after %d registrations", got, 2+seen)
					return
				}
				key := entity.Key{Type: "Account", ID: fmt.Sprintf("a-%d-%d", w, n%16)}
				if _, err := db.Append(key, []entity.Op{entity.Delta("balance", 1)}, stamp(int64(n+1)), "n1", ""); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := db.Current(key); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < extra; i++ {
		typ := &entity.Type{Name: fmt.Sprintf("T%d", i), Fields: []entity.Field{{Name: "v", Type: entity.Int}}}
		if err := db.RegisterType(typ); err != nil {
			t.Fatal(err)
		}
		registered.Store(int32(i + 1))
	}
	close(stop)
	readers.Wait()
	if got := len(db.Types()); got != 2+extra {
		t.Fatalf("Types() = %d names, want %d", got, 2+extra)
	}
}

func TestCompactSummarisesColdEntities(t *testing.T) {
	db := newTestDB(t, Options{})
	cold := entity.Key{Type: "Account", ID: "cold"}
	hot := entity.Key{Type: "Account", ID: "hot"}
	for i := 1; i <= 5; i++ {
		db.Append(cold, []entity.Op{entity.Delta("balance", 10)}, stamp(int64(i)), "n1", "")
	}
	for i := 6; i <= 10; i++ {
		db.Append(hot, []entity.Op{entity.Delta("balance", 1)}, stamp(int64(i)), "n1", "")
	}
	before := db.Len()
	if n := db.Compact(5); n != 1 {
		t.Fatalf("summarised %d entities, want 1", n)
	}
	if after := db.Len(); after >= before {
		t.Fatalf("compaction did not shrink the log: %d -> %d records", before, after)
	}
	// The summarised entity still reads correctly.
	st, _, err := db.Current(cold)
	if err != nil {
		t.Fatalf("Current(cold) after compact: %v", err)
	}
	if st.Float("balance") != 50 {
		t.Fatalf("cold balance = %v, want 50", st.Float("balance"))
	}
	if !db.Exists(cold) {
		t.Fatal("Exists(cold) should be true after compaction")
	}
	// New activity on the summarised entity builds on the summary.
	db.Append(cold, []entity.Op{entity.Delta("balance", 5)}, stamp(11), "n1", "")
	st, _, _ = db.Current(cold)
	if st.Float("balance") != 55 {
		t.Fatalf("cold balance after new activity = %v, want 55", st.Float("balance"))
	}
	// Hot entity untouched.
	st, _, _ = db.Current(hot)
	if st.Float("balance") != 5 {
		t.Fatalf("hot balance = %v, want 5", st.Float("balance"))
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := newTestDB(t, Options{SnapshotEvery: 2})
	acct := entity.Key{Type: "Account", ID: "A1"}
	order := entity.Key{Type: "Order", ID: "O1"}
	db.Append(acct, []entity.Op{entity.Set("owner", "alice"), entity.Delta("balance", 100)}, stamp(1), "n1", "t1")
	db.Append(order, []entity.Op{entity.Set("status", "OPEN"), entity.InsertChild("lineitems", "L1", entity.Fields{"product": "widget", "qty": 3})}, stamp(2), "n1", "t2")
	db.AppendTentative(acct, []entity.Op{entity.Delta("balance", -20).Described("hold")}, stamp(3), "n1", "t3")
	db.MarkObsolete(acct, "t3")

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	restored := newTestDB(t, Options{})
	if err := restored.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if restored.HeadLSN() != db.HeadLSN() {
		t.Fatalf("HeadLSN %d != %d", restored.HeadLSN(), db.HeadLSN())
	}
	origAcct, _, _ := db.Current(acct)
	loadedAcct, _, err := restored.Current(acct)
	if err != nil {
		t.Fatalf("Current after load: %v", err)
	}
	if origAcct.Float("balance") != loadedAcct.Float("balance") {
		t.Fatalf("balance %v != %v", loadedAcct.Float("balance"), origAcct.Float("balance"))
	}
	loadedOrder, _, _ := restored.Current(order)
	c, ok := loadedOrder.ChildByID("lineitems", "L1")
	if !ok || c.Fields["qty"].(int64) != 3 {
		t.Fatalf("child lost in round trip: %+v", c)
	}
	// Idempotence map must be restored too.
	if _, err := restored.Append(acct, []entity.Op{entity.Delta("balance", 1)}, stamp(9), "n1", "t1"); !errors.Is(err, ErrDuplicateTxn) {
		t.Fatalf("txn dedup not restored: %v", err)
	}
	// New appends continue from the restored LSN.
	res, err := restored.Append(acct, []entity.Op{entity.Delta("balance", 1)}, stamp(10), "n1", "t4")
	if err != nil {
		t.Fatalf("append after load: %v", err)
	}
	if res.Record.LSN != db.HeadLSN()+1 {
		t.Fatalf("LSN after load = %d, want %d", res.Record.LSN, db.HeadLSN()+1)
	}
}

func TestLoadMalformed(t *testing.T) {
	db := newTestDB(t, Options{})
	if err := db.Load(bytes.NewReader([]byte("{not json"))); err == nil {
		t.Fatal("malformed stream accepted")
	}
	if err := db.Load(bytes.NewReader([]byte(`{"lsn":1,"key":"nokeysep","stamp":"1.0@n","ops":[]}` + "\n"))); err == nil {
		t.Fatal("malformed key accepted")
	}
	if err := db.Load(bytes.NewReader([]byte(`{"lsn":1,"key":"Account/A","stamp":"bogus","ops":[]}` + "\n"))); err == nil {
		t.Fatal("malformed stamp accepted")
	}
}

func TestStrictValidationAtAppend(t *testing.T) {
	db := Open(Options{Node: "n", Validation: entity.Strict})
	db.RegisterType(accountType())
	key := entity.Key{Type: "Account", ID: "A"}
	if _, err := db.Append(key, []entity.Op{entity.Set("bogus", 1)}, stamp(1), "n1", ""); err == nil {
		t.Fatal("strict mode should reject unknown field at append time")
	}
	// Managed mode accepts it and reports a warning.
	managed := Open(Options{Node: "n", Validation: entity.Managed})
	managed.RegisterType(accountType())
	res, err := managed.Append(key, []entity.Op{entity.Set("bogus", 1)}, stamp(1), "n1", "")
	if err != nil {
		t.Fatalf("managed append: %v", err)
	}
	if len(res.Warnings) != 1 {
		t.Fatalf("warnings = %v", res.Warnings)
	}
}

func TestConcurrentAppendsDifferentKeys(t *testing.T) {
	db := newTestDB(t, Options{SnapshotEvery: 8, SegmentSize: 64})
	const writers, perWriter = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := entity.Key{Type: "Account", ID: fmt.Sprintf("A%d", w)}
			for i := 0; i < perWriter; i++ {
				if _, err := db.Append(key, []entity.Op{entity.Delta("balance", 1)}, stamp(int64(i)), "n1", ""); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if db.Len() != writers*perWriter {
		t.Fatalf("Len = %d, want %d", db.Len(), writers*perWriter)
	}
	for w := 0; w < writers; w++ {
		st, _, err := db.Current(entity.Key{Type: "Account", ID: fmt.Sprintf("A%d", w)})
		if err != nil {
			t.Fatalf("Current: %v", err)
		}
		if st.Float("balance") != perWriter {
			t.Fatalf("writer %d balance = %v, want %d", w, st.Float("balance"), perWriter)
		}
	}
}

// --- Materialised state cache and sharding ---------------------------------

func TestStateCacheInvalidationOnMarkObsolete(t *testing.T) {
	db := newTestDB(t, Options{SnapshotEvery: 4})
	key := entity.Key{Type: "Account", ID: "A1"}
	for i := 1; i <= 10; i++ {
		db.Append(key, []entity.Op{entity.Delta("balance", 10)}, stamp(int64(i)), "n1", fmt.Sprintf("t%d", i))
	}
	db.AppendTentative(key, []entity.Op{entity.Delta("balance", -25)}, stamp(11), "n1", "hold")
	// Two reads in a row exercise the cache-hit path.
	for i := 0; i < 2; i++ {
		st, head, err := db.Current(key)
		if err != nil || st.Float("balance") != 75 || head != 11 {
			t.Fatalf("read %d: balance=%v head=%d err=%v", i, st.Float("balance"), head, err)
		}
		if !st.Tentative {
			t.Fatalf("read %d: state should be tentative", i)
		}
	}
	// Withdrawing the promise invalidates the materialised state; the next
	// read must fall back to a rollup that excludes the obsolete record and
	// clears the tentative flag.
	if err := db.MarkObsolete(key, "hold"); err != nil {
		t.Fatalf("MarkObsolete: %v", err)
	}
	st, head, err := db.Current(key)
	if err != nil || st.Float("balance") != 100 || head != 11 {
		t.Fatalf("after obsolete: balance=%v head=%d err=%v", st.Float("balance"), head, err)
	}
	if st.Tentative {
		t.Fatal("tentative flag survived withdrawal")
	}
	// The rebuilt state is re-materialised: appends keep it incremental.
	db.Append(key, []entity.Op{entity.Delta("balance", 1)}, stamp(12), "n1", "t12")
	st, _, _ = db.Current(key)
	if st.Float("balance") != 101 {
		t.Fatalf("balance after re-materialise = %v, want 101", st.Float("balance"))
	}
}

func TestStateCacheInvalidationOnCompact(t *testing.T) {
	db := newTestDB(t, Options{})
	cold := entity.Key{Type: "Account", ID: "cold"}
	for i := 1; i <= 5; i++ {
		db.Append(cold, []entity.Op{entity.Delta("balance", 10)}, stamp(int64(i)), "n1", "")
	}
	if st, _, _ := db.Current(cold); st.Float("balance") != 50 {
		t.Fatalf("pre-compact balance = %v", st.Float("balance"))
	}
	db.Compact(db.HeadLSN())
	// The cache entry was dropped with the detail records; the read must
	// rebuild from the archived summary.
	st, head, err := db.Current(cold)
	if err != nil || st.Float("balance") != 50 {
		t.Fatalf("post-compact: balance=%v err=%v", st.Float("balance"), err)
	}
	if head != 5 {
		t.Fatalf("post-compact head = %d, want 5 (the last record the summary folds in)", head)
	}
	// New activity builds on the summary and re-materialises.
	db.Append(cold, []entity.Op{entity.Delta("balance", 5)}, stamp(6), "n1", "")
	st, _, _ = db.Current(cold)
	if st.Float("balance") != 55 {
		t.Fatalf("balance after summary + append = %v, want 55", st.Float("balance"))
	}
}

func TestStateCacheInvalidationOnLoad(t *testing.T) {
	src := newTestDB(t, Options{})
	key := entity.Key{Type: "Account", ID: "A1"}
	src.Append(key, []entity.Op{entity.Delta("balance", 100)}, stamp(1), "n1", "t1")
	src.AppendTentative(key, []entity.Op{entity.Delta("balance", -40)}, stamp(2), "n1", "t2")
	src.MarkObsolete(key, "t2")

	// Two streams in Save's layout: the first record, then the rest.
	recs := src.RecordsAfterN(0, 0)
	stream := func(recs []Record) io.Reader {
		var buf bytes.Buffer
		sw := storage.NewStreamWriter(&buf)
		sw.Control(tagCount, nil, uint64(len(recs)))
		for i := range recs {
			sw.Record(&recs[i])
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	dst := newTestDB(t, Options{})
	// Reading a key mid-restore materialises a partial state; the remaining
	// loaded records must invalidate it.
	if err := dst.Load(stream(recs[:1])); err != nil {
		t.Fatalf("Load first record: %v", err)
	}
	if st, _, _ := dst.Current(key); st.Float("balance") != 100 {
		t.Fatalf("mid-load balance = %v", st.Float("balance"))
	}
	if err := dst.Load(stream(recs[1:])); err != nil {
		t.Fatalf("Load rest: %v", err)
	}
	st, head, err := dst.Current(key)
	if err != nil || st.Float("balance") != 100 || st.Tentative {
		t.Fatalf("post-load: %v tentative=%v err=%v (obsolete record leaked in)", st.Float("balance"), st.Tentative, err)
	}
	if head != 2 {
		t.Fatalf("post-load head = %d, want 2", head)
	}
}

// TestCurrentReturnsCopy is the original aliasing check, restated for the
// copy-on-write contract: Current hands out a frozen state; a caller that
// Thaws it and mutates the copy (root fields directly, children through
// Apply) must never corrupt the cache.
func TestCurrentReturnsCopy(t *testing.T) {
	db := newTestDB(t, Options{})
	key := entity.Key{Type: "Order", ID: "O1"}
	db.Append(key, []entity.Op{entity.Set("status", "OPEN"), entity.InsertChild("lineitems", "L1", entity.Fields{"product": "widget", "qty": 1})}, stamp(1), "n1", "")
	st, _, _ := db.Current(key)
	if !st.Frozen() {
		t.Fatal("Current should return a frozen state")
	}
	mine := st.Thaw()
	mine.Fields["status"] = "MUTATED"
	typ, _ := db.TypeOf("Order")
	mine, _, err := entity.Apply(typ, mine, []entity.Op{entity.SetChildField("lineitems", "L1", "qty", 99)}, entity.Managed)
	if err != nil {
		t.Fatalf("Apply on thawed state: %v", err)
	}
	if mine.StringField("status") != "MUTATED" || func() int64 { c, _ := mine.ChildByID("lineitems", "L1"); return c.Fields["qty"].(int64) }() != 99 {
		t.Fatal("thawed copy lost its own writes")
	}
	again, _, _ := db.Current(key)
	if again.StringField("status") != "OPEN" {
		t.Fatalf("caller mutation leaked into cache: %q", again.StringField("status"))
	}
	if c, _ := again.ChildByID("lineitems", "L1"); c.Fields["qty"].(int64) != 1 {
		t.Fatalf("caller child mutation leaked into cache: %v", c.Fields["qty"])
	}
}

// mutateEverywhere thaws st and scribbles over it through every supported
// mutation channel: direct root-field writes, flags, and child ops applied
// through entity.Apply.
func mutateEverywhere(t *testing.T, db *DB, st *entity.State) {
	t.Helper()
	typ, ok := db.TypeOf(st.Key.Type)
	if !ok {
		t.Fatalf("unknown type %s", st.Key.Type)
	}
	m := st.Thaw()
	for k := range m.Fields {
		m.Fields[k] = "SCRIBBLED"
	}
	m.Fields["injected"] = "SCRIBBLED"
	m.Deleted = true
	m.Tentative = true
	ops := []entity.Op{entity.Set("owner", "SCRIBBLED"), entity.Delta("balance", 1e9)}
	for _, name := range m.Collections() {
		for _, row := range m.Children(name) {
			ops = append(ops,
				entity.SetChildField(name, row.ID, "qty", 424242),
				entity.DeleteChild(name, row.ID))
		}
		ops = append(ops, entity.InsertChild(name, "intruder", entity.Fields{"product": "intruder"}))
	}
	if _, _, err := entity.Apply(typ, m, ops, entity.Managed); err != nil {
		t.Fatalf("Apply: %v", err)
	}
}

// TestAliasingAcrossReadEntryPoints is the property-style COW-contract suite:
// whatever a caller does to a thawed copy of a state obtained from any read
// entry point (Current, Scan, AsOf, History, snapshots, archived summaries),
// re-reading must produce the untouched value.
func TestAliasingAcrossReadEntryPoints(t *testing.T) {
	db := newTestDB(t, Options{SnapshotEvery: 3, Shards: 2})
	key := entity.Key{Type: "Order", ID: "O1"}
	const rows = 10
	if _, err := db.Append(key, []entity.Op{entity.Set("status", "OPEN"), entity.Set("total", 7.5)}, stamp(1), "n1", "t1"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		id := fmt.Sprintf("L%d", i)
		if _, err := db.Append(key, []entity.Op{entity.InsertChild("lineitems", id, entity.Fields{"product": "widget", "qty": i})}, stamp(int64(i+2)), "n1", fmt.Sprintf("ti%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	check := func(stage string) {
		t.Helper()
		st, _, err := db.Current(key)
		if err != nil {
			t.Fatalf("%s: Current: %v", stage, err)
		}
		if st.StringField("status") != "OPEN" || st.Float("total") != 7.5 || st.Deleted || st.Tentative {
			t.Fatalf("%s: root state corrupted: %+v del=%v tent=%v", stage, st.Fields, st.Deleted, st.Tentative)
		}
		if _, ok := st.Fields["injected"]; ok {
			t.Fatalf("%s: injected root field leaked in", stage)
		}
		live := st.LiveChildren("lineitems")
		if len(live) != rows {
			t.Fatalf("%s: live children = %d, want %d", stage, len(live), rows)
		}
		for i := 0; i < rows; i++ {
			c, ok := st.ChildByID("lineitems", fmt.Sprintf("L%d", i))
			if !ok || c.Deleted || c.Fields["qty"].(int64) != int64(i) {
				t.Fatalf("%s: child L%d corrupted: ok=%v %+v", stage, i, ok, c)
			}
		}
		if _, ok := st.ChildByID("lineitems", "intruder"); ok {
			t.Fatalf("%s: intruder child leaked in", stage)
		}
	}

	// Current (cache hit) — twice, so the second read checks the first
	// reader's scribbling.
	st, _, _ := db.Current(key)
	mutateEverywhere(t, db, st)
	check("current-hit")
	// Scan.
	if err := db.Scan("Order", func(s *entity.State) bool {
		mutateEverywhere(t, db, s)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	check("scan")
	// AsOf (historical read sharing snapshot structure).
	asOf, err := db.AsOf(key, stamp(100))
	if err != nil {
		t.Fatal(err)
	}
	mutateEverywhere(t, db, asOf)
	check("as-of")
	// History versions.
	h, err := db.History(key)
	if err != nil {
		t.Fatal(err)
	}
	mutateEverywhere(t, db, h.Versions[h.Len()-1].State)
	check("history")
	// Cache miss path: invalidate via MarkObsolete of a fresh tentative hold,
	// so the next read rebuilds from the (shared, frozen) snapshot.
	if _, err := db.AppendTentative(key, []entity.Op{entity.Delta("total", -1)}, stamp(200), "n1", "hold"); err != nil {
		t.Fatal(err)
	}
	if err := db.MarkObsolete(key, "hold"); err != nil {
		t.Fatal(err)
	}
	st, _, _ = db.Current(key)
	mutateEverywhere(t, db, st)
	check("rebuild-after-invalidation")
	// Archived summary: compact everything, mutate the read, re-read.
	db.Compact(db.HeadLSN())
	st, _, _ = db.Current(key)
	mutateEverywhere(t, db, st)
	check("archived-summary")
}

// TestAppendSanitizesOpValues covers the Fields.Clone aliasing hazard at the
// layer where it bites: an op carrying a container value must not alias into
// the sealed log or the state cache, and an op carrying an unsupported
// non-scalar kind is rejected outright.
func TestAppendSanitizesOpValues(t *testing.T) {
	db := newTestDB(t, Options{Validation: entity.Managed})
	key := entity.Key{Type: "Account", ID: "A1"}
	// Container values are detached from the caller's memory.
	blob := []interface{}{int64(1), int64(2)}
	op := entity.Op{Kind: entity.OpSet, Field: "blob", Value: blob}
	if _, err := db.Append(key, []entity.Op{op}, stamp(1), "n1", "t1"); err != nil {
		t.Fatalf("Append(container): %v", err)
	}
	blob[0] = int64(99) // caller scribbles after commit
	st, _, _ := db.Current(key)
	if got := st.Fields["blob"].([]interface{})[0].(int64); got != 1 {
		t.Fatalf("caller slice aliased into the cache: %v", got)
	}
	recs := db.RecordsFor(key)
	if got := recs[0].Ops[0].Value.([]interface{})[0].(int64); got != 1 {
		t.Fatalf("caller slice aliased into the sealed log: %v", got)
	}
	// Unsupported kinds never enter the log.
	type opaque struct{ X int }
	bad := entity.Op{Kind: entity.OpSet, Field: "bad", Value: &opaque{1}}
	if _, err := db.Append(key, []entity.Op{bad}, stamp(2), "n1", "t2"); !errors.Is(err, entity.ErrUnsafeValue) {
		t.Fatalf("pointer value accepted: %v", err)
	}
	if db.Len() != 1 {
		t.Fatalf("rejected op left a record behind: len=%d", db.Len())
	}
}

// TestSharedSnapshotSurvivesCallerWrites pins down the snapshot/cache sharing
// introduced by the COW refactor: the snapshot fallback stores the same
// frozen state the cache and callers see, so caller-side writes must never
// reach it.
func TestSharedSnapshotSurvivesCallerWrites(t *testing.T) {
	db := newTestDB(t, Options{SnapshotEvery: 2})
	key := entity.Key{Type: "Account", ID: "A1"}
	for i := 1; i <= 4; i++ {
		db.Append(key, []entity.Op{entity.Delta("balance", 10)}, stamp(int64(i)), "n1", fmt.Sprintf("t%d", i))
	}
	st, _, _ := db.Current(key)
	mutateEverywhere(t, db, st)
	// Force a snapshot-based rebuild: tentative append, then withdraw it.
	db.AppendTentative(key, []entity.Op{entity.Delta("balance", -5)}, stamp(5), "n1", "hold")
	if err := db.MarkObsolete(key, "hold"); err != nil {
		t.Fatal(err)
	}
	rebuilt, _, err := db.Current(key)
	if err != nil || rebuilt.Float("balance") != 40 {
		t.Fatalf("snapshot-backed rebuild corrupted: balance=%v err=%v", rebuilt.Float("balance"), err)
	}
}

func TestShardedRecordsAfterOrderAndLen(t *testing.T) {
	db := newTestDB(t, Options{Shards: 4, SegmentSize: 3})
	const n = 50
	for i := 1; i <= n; i++ {
		key := entity.Key{Type: "Account", ID: fmt.Sprintf("A%d", i%7)}
		if _, err := db.Append(key, []entity.Op{entity.Delta("balance", 1)}, stamp(int64(i)), "n1", ""); err != nil {
			t.Fatal(err)
		}
	}
	recs := db.RecordsAfterN(0, 0)
	if len(recs) != n {
		t.Fatalf("RecordsAfterN(0, 0) = %d, want %d", len(recs), n)
	}
	for i := range recs {
		if recs[i].LSN != uint64(i+1) {
			t.Fatalf("records not in global LSN order at %d: %d", i, recs[i].LSN)
		}
	}
	if db.Len() != n || db.HeadLSN() != n {
		t.Fatalf("Len=%d HeadLSN=%d", db.Len(), db.HeadLSN())
	}
	if len(db.shards) != 4 {
		t.Fatalf("shards = %d", len(db.shards))
	}
}

func TestSaveLoadAcrossShardCounts(t *testing.T) {
	src := newTestDB(t, Options{Shards: 4})
	for i := 1; i <= 40; i++ {
		key := entity.Key{Type: "Account", ID: fmt.Sprintf("A%d", i%9)}
		src.Append(key, []entity.Op{entity.Delta("balance", float64(i))}, stamp(int64(i)), "n1", fmt.Sprintf("t%d", i))
	}
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	for _, shards := range []int{1, 2, 8} {
		dst := newTestDB(t, Options{Shards: shards})
		if err := dst.Load(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("Load into %d shards: %v", shards, err)
		}
		for _, key := range allKeys(src) {
			want, _, _ := src.Current(key)
			got, _, err := dst.Current(key)
			if err != nil || got.Float("balance") != want.Float("balance") {
				t.Fatalf("shards=%d key=%s: got %v want %v err=%v", shards, key, got.Float("balance"), want.Float("balance"), err)
			}
		}
		if dst.HeadLSN() != src.HeadLSN() {
			t.Fatalf("shards=%d HeadLSN %d != %d", shards, dst.HeadLSN(), src.HeadLSN())
		}
	}
}

// TestScanCrossShardConsistency checks that a scan racing concurrent
// writers only ever observes internally consistent per-entity states: every
// record applies two +1 deltas atomically, so any valid rollup has an even
// balance.
func TestScanCrossShardConsistency(t *testing.T) {
	db := newTestDB(t, Options{Shards: 8})
	const writers, perWriter, entities = 4, 200, 16
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var scanErr error
	var scanMu sync.Mutex
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			db.Scan("Account", func(st *entity.State) bool {
				if int64(st.Float("balance"))%2 != 0 {
					scanMu.Lock()
					scanErr = fmt.Errorf("scan saw torn state: %s balance=%v", st.Key, st.Float("balance"))
					scanMu.Unlock()
					return false
				}
				return true
			})
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := entity.Key{Type: "Account", ID: fmt.Sprintf("E%d", (w*perWriter+i)%entities)}
				ops := []entity.Op{entity.Delta("balance", 1), entity.Delta("balance", 1)}
				if _, err := db.Append(key, ops, stamp(int64(i+1)), "n1", ""); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	scanMu.Lock()
	defer scanMu.Unlock()
	if scanErr != nil {
		t.Fatal(scanErr)
	}
	var total float64
	db.Scan("Account", func(st *entity.State) bool {
		total += st.Float("balance")
		return true
	})
	if total != writers*perWriter*2 {
		t.Fatalf("final scan total = %v, want %d", total, writers*perWriter*2)
	}
}

// TestDisabledStateCacheMatchesCached checks the E9/E13 baseline mode stays
// semantically identical to the cached read path.
func TestDisabledStateCacheMatchesCached(t *testing.T) {
	cachedDB := newTestDB(t, Options{SnapshotEvery: 4})
	baseline := newTestDB(t, Options{SnapshotEvery: 4, DisableStateCache: true})
	key := entity.Key{Type: "Account", ID: "A1"}
	for i := 1; i <= 30; i++ {
		ops := []entity.Op{entity.Delta("balance", float64(i))}
		if i%7 == 0 {
			ops = append(ops, entity.Set("owner", fmt.Sprintf("o%d", i)))
		}
		cachedDB.Append(key, ops, stamp(int64(i)), "n1", "")
		baseline.Append(key, ops, stamp(int64(i)), "n1", "")
	}
	a, ha, _ := cachedDB.Current(key)
	b, hb, _ := baseline.Current(key)
	if a.Float("balance") != b.Float("balance") || a.StringField("owner") != b.StringField("owner") || ha != hb {
		t.Fatalf("cached %v/%q@%d vs baseline %v/%q@%d",
			a.Float("balance"), a.StringField("owner"), ha, b.Float("balance"), b.StringField("owner"), hb)
	}
}

// Property: for any sequence of deltas, the rollup equals their sum — the
// "current state is an aggregation of the log" invariant from section 3.1.
func TestRollupEqualsSumProperty(t *testing.T) {
	f := func(deltas []int8) bool {
		db := Open(Options{Node: "n", SnapshotEvery: 3})
		db.RegisterType(accountType())
		key := entity.Key{Type: "Account", ID: "A"}
		var want float64
		for i, d := range deltas {
			want += float64(d)
			if _, err := db.Append(key, []entity.Op{entity.Delta("balance", float64(d))}, stamp(int64(i+1)), "n1", ""); err != nil {
				return false
			}
		}
		if len(deltas) == 0 {
			return true
		}
		st, _, err := db.Current(key)
		if err != nil {
			return false
		}
		return st.Float("balance") == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: Save/Load round-trips the rollup for random delta sequences.
func TestSaveLoadProperty(t *testing.T) {
	f := func(deltas []int8) bool {
		db := Open(Options{Node: "n"})
		db.RegisterType(accountType())
		key := entity.Key{Type: "Account", ID: "A"}
		for i, d := range deltas {
			db.Append(key, []entity.Op{entity.Delta("balance", float64(d))}, stamp(int64(i+1)), "n1", "")
		}
		var buf bytes.Buffer
		if err := db.Save(&buf); err != nil {
			return false
		}
		restored := Open(Options{Node: "n"})
		restored.RegisterType(accountType())
		if err := restored.Load(&buf); err != nil {
			return false
		}
		if len(deltas) == 0 {
			return restored.Len() == 0
		}
		a, _, err1 := db.Current(key)
		b, _, err2 := restored.Current(key)
		if err1 != nil || err2 != nil {
			return false
		}
		return a.Float("balance") == b.Float("balance")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
