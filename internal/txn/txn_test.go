package txn

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"

	"repro/internal/clock"
	"repro/internal/entity"
	"repro/internal/lsdb"
	"repro/internal/queue"
)

func newUnit(t *testing.T, node clock.NodeID, opts Options) *Manager {
	t.Helper()
	db := lsdb.Open(lsdb.Options{Node: node, SnapshotEvery: 16, Validation: entity.Managed})
	types := []*entity.Type{
		{Name: "Account", Fields: []entity.Field{
			{Name: "owner", Type: entity.String},
			{Name: "balance", Type: entity.Float},
		}},
		{Name: "Order", Fields: []entity.Field{
			{Name: "status", Type: entity.String},
			{Name: "total", Type: entity.Float},
		}, Children: []entity.ChildCollection{
			{Name: "lineitems", Fields: []entity.Field{
				{Name: "product", Type: entity.String},
				{Name: "qty", Type: entity.Int},
			}},
		}},
	}
	for _, typ := range types {
		if err := db.RegisterType(typ); err != nil {
			t.Fatal(err)
		}
	}
	opts.Node = node
	return NewManager(db, nil, opts)
}

func acct(id string) entity.Key { return entity.Key{Type: "Account", ID: id} }

func TestSolipsisticCommit(t *testing.T) {
	m := newUnit(t, "u1", Options{})
	q := queue.New("u1", queue.Options{Entities: m.DB().Entity})
	tx := m.begin()
	st, err := tx.Read(acct("A"))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if st.Float("balance") != 0 {
		t.Fatal("new entity should read as empty state")
	}
	if err := tx.Update(acct("A"), entity.Set("owner", "alice"), entity.Delta("balance", 100)); err != nil {
		t.Fatal(err)
	}
	tx.Emit("accounts", queue.Event{Name: "account.opened", Entity: acct("A")})
	res, err := tx.commit(q)
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if len(res.Records()) != 1 || len(res.PublishedEvents) != 1 {
		t.Fatalf("result = %+v", res)
	}
	st, _, err = m.DB().Current(acct("A"))
	if err != nil || st.Float("balance") != 100 {
		t.Fatalf("committed state: %v %v", st, err)
	}
	if q.Len() != 1 {
		t.Fatalf("event not published: %d", q.Len())
	}
	if m.Stats().Commits != 1 {
		t.Fatalf("stats = %+v", m.Stats())
	}
	if tx.ID() == "" {
		t.Fatal("metadata accessors broken")
	}
}

func TestReadYourWritesWithinTxn(t *testing.T) {
	m := newUnit(t, "u1", Options{})
	tx := m.begin()
	tx.Update(acct("A"), entity.Delta("balance", 40))
	st, err := tx.Read(acct("A"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Float("balance") != 40 {
		t.Fatalf("own write not visible: %v", st.Float("balance"))
	}
	// But not visible outside before commit.
	if _, _, err := m.DB().Current(acct("A")); !errors.Is(err, lsdb.ErrNotFound) {
		t.Fatal("uncommitted write visible outside the transaction")
	}
	tx.Abort()
	if _, _, err := m.DB().Current(acct("A")); !errors.Is(err, lsdb.ErrNotFound) {
		t.Fatal("aborted write became visible")
	}
}

func TestAbortDiscardsEverything(t *testing.T) {
	m := newUnit(t, "u1", Options{})
	q := queue.New("u1", queue.Options{Entities: m.DB().Entity})
	tx := m.begin()
	tx.Update(acct("A"), entity.Delta("balance", 10))
	tx.Emit("t", queue.Event{Name: "e"})
	tx.Abort()
	if q.Len() != 0 {
		t.Fatal("aborted transaction published events")
	}
	if m.Stats().Aborts != 1 {
		t.Fatalf("stats = %+v", m.Stats())
	}
	// Using the transaction afterwards fails.
	if err := tx.Update(acct("A"), entity.Delta("balance", 1)); !errors.Is(err, ErrDone) {
		t.Fatalf("want ErrDone, got %v", err)
	}
	if _, err := tx.Read(acct("A")); !errors.Is(err, ErrDone) {
		t.Fatalf("want ErrDone, got %v", err)
	}
	if _, err := tx.commit(nil); !errors.Is(err, ErrDone) {
		t.Fatalf("want ErrDone, got %v", err)
	}
	tx.Abort() // idempotent
}

func TestSolipsisticNeverConflicts(t *testing.T) {
	// Two solipsistic transactions both update the same entity from the same
	// snapshot; both commit (no waits, no aborts), and because they use
	// commutative deltas the final state is correct (principle 2.10 + 2.7).
	m := newUnit(t, "u1", Options{})
	t1 := m.begin()
	t2 := m.begin()
	t1.Read(acct("A"))
	t2.Read(acct("A"))
	t1.Update(acct("A"), entity.Delta("balance", 30).Described("deposit 30"))
	t2.Update(acct("A"), entity.Delta("balance", 12).Described("deposit 12"))
	if _, err := t1.commit(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.commit(nil); err != nil {
		t.Fatalf("solipsistic commit should never conflict: %v", err)
	}
	st, _, _ := m.DB().Current(acct("A"))
	if st.Float("balance") != 42 {
		t.Fatalf("balance = %v, want 42", st.Float("balance"))
	}
	if m.Stats().Conflicts != 0 || m.Stats().Aborts != 0 {
		t.Fatalf("stats = %+v", m.Stats())
	}
}

func TestEnforceSingleEntity(t *testing.T) {
	m := newUnit(t, "u1", Options{EnforceSingleEntity: true})
	tx := m.begin()
	tx.Update(acct("A"), entity.Delta("balance", 1))
	tx.Update(acct("B"), entity.Delta("balance", 1))
	if _, err := tx.commit(nil); !errors.Is(err, ErrMultiEntity) {
		t.Fatalf("want ErrMultiEntity, got %v", err)
	}
	// Neither write took effect.
	if _, _, err := m.DB().Current(acct("A")); !errors.Is(err, lsdb.ErrNotFound) {
		t.Fatal("partial commit leaked")
	}
	// A single-entity transaction with several ops is fine.
	ok := m.begin()
	ok.Update(acct("C"), entity.Delta("balance", 1))
	ok.Update(acct("C"), entity.Set("owner", "carol"))
	if _, err := ok.commit(nil); err != nil {
		t.Fatalf("single-entity commit: %v", err)
	}
	if got := ok.Entities(); len(got) != 1 || got[0] != acct("C") {
		t.Fatalf("Entities = %v", got)
	}
}

func TestTentativeUpdateFlagsState(t *testing.T) {
	m := newUnit(t, "u1", Options{})
	res, err := m.Promise(acct("A"), 0, entity.Delta("balance", -20).Described("hold for offer"))
	if err != nil {
		t.Fatal(err)
	}
	st, _, _ := m.DB().Current(acct("A"))
	if !st.Tentative {
		t.Fatal("state should be tentative")
	}
	// The promise is withdrawn by a settlement naming its txn id.
	if _, err := m.Update(acct("A"), entity.BreakPromise(res.TxnID, "", "")); err != nil {
		t.Fatalf("break settlement: %v", err)
	}
	// It was the entity's first write, so nothing of the entity is left.
	if st, _, err := m.DB().Current(acct("A")); !errors.Is(err, lsdb.ErrNotFound) {
		t.Fatalf("withdrawn promise still visible: %v, %v", st, err)
	}
}

func TestCommitIdempotentOnDuplicateTxnID(t *testing.T) {
	m := newUnit(t, "u1", Options{})
	tx := m.begin()
	tx.Update(acct("A"), entity.Delta("balance", 10))
	if _, err := tx.commit(nil); err != nil {
		t.Fatal(err)
	}
	// Simulate an at-least-once retry of the same logical transaction by
	// appending directly with the same txn id: the LSDB refuses.
	_, err := m.DB().Append(acct("A"), []entity.Op{entity.Delta("balance", 10)}, clock.Timestamp{WallNanos: 1, Node: "u1"}, "u1", tx.ID())
	if !errors.Is(err, lsdb.ErrDuplicateTxn) {
		t.Fatalf("want ErrDuplicateTxn, got %v", err)
	}
	st, _, _ := m.DB().Current(acct("A"))
	if st.Float("balance") != 10 {
		t.Fatalf("duplicate applied: %v", st.Float("balance"))
	}
}

func TestRunPropagatesBodyError(t *testing.T) {
	m := newUnit(t, "u1", Options{})
	boom := errors.New("boom")
	if _, err := m.Run(nil, func(*Txn) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("want body error, got %v", err)
	}
	if m.Stats().Aborts != 1 {
		t.Fatalf("stats = %+v", m.Stats())
	}
}

func TestConcurrentSolipsisticDepositsAllLand(t *testing.T) {
	m := newUnit(t, "u1", Options{})
	const workers, per = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_, err := m.Run(nil, func(tx *Txn) error {
					return tx.Update(acct("shared"), entity.Delta("balance", 1))
				})
				if err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st, _, _ := m.DB().Current(acct("shared"))
	if st.Float("balance") != workers*per {
		t.Fatalf("balance = %v, want %d (deltas must not be lost)", st.Float("balance"), workers*per)
	}
}

func TestCommitResultWarningsSurface(t *testing.T) {
	m := newUnit(t, "u1", Options{})
	tx := m.begin()
	// Unknown field: accepted in managed mode but reported.
	tx.Update(entity.Key{Type: "Order", ID: "O1"}, entity.Set("unknown_field", "x"))
	res, err := tx.commit(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) != 1 {
		t.Fatalf("warnings = %v", res.Warnings)
	}
}

// TestConcurrentTransactionsRideGroupCommit runs many solipsistic
// transactions from concurrent goroutines against one store: the commit
// results, final balances, idempotence and the dense LSN space must all
// match what one writer at a time would produce.
func TestConcurrentTransactionsRideGroupCommit(t *testing.T) {
	m := newUnit(t, "u1", Options{EnforceSingleEntity: true})
	const goroutines, perG = 8, 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				key := acct("shared")
				if i%2 == 0 {
					key = acct("private-" + string(rune('a'+g)))
				}
				if _, err := m.Run(nil, func(tx *Txn) error {
					return tx.Update(key, entity.Delta("balance", 1))
				}); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := m.Stats().Commits; got != goroutines*perG {
		t.Fatalf("commits = %d, want %d", got, goroutines*perG)
	}
	st, _, err := m.DB().Current(acct("shared"))
	if err != nil {
		t.Fatalf("Current: %v", err)
	}
	if got := st.Float("balance"); got != float64(goroutines*perG/2) {
		t.Fatalf("shared balance = %v, want %d", got, goroutines*perG/2)
	}
	records := m.DB().RecordsAfterN(0, 0)
	if len(records) != goroutines*perG {
		t.Fatalf("log has %d records, want %d", len(records), goroutines*perG)
	}
	for i, rec := range records {
		if rec.LSN != uint64(i+1) {
			t.Fatalf("LSN %d at position %d: concurrent commits left a gap", rec.LSN, i)
		}
	}
}

// A manager opened over a store that already holds this node's transactions
// (a recovered log after a durable restart or a standby promotion) must
// resume the id sequence past them: Commit treats a duplicate id as an
// at-least-once retry and silently skips the append, so a recycled id would
// make a fresh write vanish.
func TestManagerResumesTxnIDsFromRecoveredLog(t *testing.T) {
	m := newUnit(t, "u1", Options{})
	for i := 0; i < 3; i++ {
		tx := m.begin()
		if err := tx.Update(acct("A"), entity.Delta("balance", 1)); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.commit(nil); err != nil {
			t.Fatal(err)
		}
	}

	// "Restart": a new manager over the same store and node name.
	resumed := NewManager(m.DB(), nil, Options{Node: "u1"})
	tx := resumed.begin()
	if got, want := tx.ID(), "u1-txn-4"; got != want {
		t.Fatalf("first txn id after restart = %s, want %s", got, want)
	}
	if err := tx.Update(acct("A"), entity.Delta("balance", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.commit(nil); err != nil {
		t.Fatal(err)
	}
	st, _, err := resumed.DB().Current(acct("A"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Float("balance") != 4 {
		t.Fatalf("balance = %v, want 4 (post-restart write was dropped as a duplicate)", st.Float("balance"))
	}

	// Foreign txn ids (other nodes, caller-supplied) must not confuse the scan.
	if _, err := resumed.DB().Append(acct("A"), []entity.Op{entity.Delta("balance", 1)},
		clock.Timestamp{WallNanos: 99, Node: "u2"}, "u2", "u2-txn-900"); err != nil {
		t.Fatal(err)
	}
	again := NewManager(resumed.DB(), nil, Options{Node: "u1"})
	if got, want := again.begin().ID(), "u1-txn-5"; got != want {
		t.Fatalf("txn id after foreign writes = %s, want %s", got, want)
	}
}

// The records a CommitResult carries are copies: what happens to the log
// afterwards — a withdrawal flipping the record's flag, compaction replacing
// its segment, further commits — never shows in a result already returned.
func TestCommitResultRecordsAreDetachedFromTheLog(t *testing.T) {
	m := newUnit(t, "u1", Options{})
	key := acct("A")
	res, err := m.Promise(key, 0, entity.Delta("balance", 7))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records()) != 1 {
		t.Fatalf("%d records, want 1", len(res.Records()))
	}
	kept := res.Records()[0]
	for i := 0; i < 20; i++ {
		if _, err := m.Run(nil, func(tx *Txn) error { return tx.Update(key, entity.Delta("balance", 1)) }); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Update(key, entity.BreakPromise(res.TxnID, "", "")); err != nil {
		t.Fatal(err)
	}
	m.DB().Compact(m.DB().HeadLSN())
	got := res.Records()[0]
	if got.Obsolete || !got.Tentative || got.LSN != kept.LSN || got.TxnID != res.TxnID || got.Key != key ||
		len(got.Ops) != 1 || got.Ops[0].Delta != 7 {
		t.Fatalf("a returned record changed under its holder: %+v, was %+v", got, kept)
	}
}

// BeginIn starts a transaction in reused storage: nothing of the transaction
// that storage held before — its id, writes, staged events, done flag
// — is the new one's.
func TestBeginInReusesStorageNotState(t *testing.T) {
	m := newUnit(t, "u1", Options{})
	q := queue.New("u1", queue.Options{Entities: m.DB().Entity})
	var tx Txn
	m.BeginIn(&tx, "")
	first := tx.ID()
	if _, err := tx.Read(acct("A")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(acct("A"), entity.Delta("balance", 1)); err != nil {
		t.Fatal(err)
	}
	tx.Emit("t", queue.Event{Name: "e", Entity: acct("A")})
	if err := tx.CommitDiscard(q); err != nil {
		t.Fatal(err)
	}
	if q.Len() != 1 {
		t.Fatalf("CommitDiscard published %d events, want 1", q.Len())
	}

	m.BeginIn(&tx, "")
	if tx.ID() == first || len(tx.Entities()) != 0 || tx.outbox != nil || tx.done {
		t.Fatalf("reused Txn carries over: id %s (was %s), writes %v", tx.ID(), first, tx.Entities())
	}
	// An empty commit in the reused storage publishes and writes nothing.
	if err := tx.CommitDiscard(q); err != nil {
		t.Fatal(err)
	}
	if q.Len() != 1 || m.DB().Len() != 1 {
		t.Fatalf("the reused transaction re-committed its predecessor: queue %d, log %d", q.Len(), m.DB().Len())
	}
	if s := m.Stats(); s.Commits != 2 || s.Aborts != 0 {
		t.Fatalf("stats %+v, want 2 commits", s)
	}
}

// Stats is read without a lock while commits, aborts and conflicts count.
func TestStatsCountsUnderConcurrency(t *testing.T) {
	m := newUnit(t, "u1", Options{})
	const workers, each = 4, 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				m.Stats()
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tx := m.begin()
				_ = tx.Update(acct("A"), entity.Delta("balance", 1))
				if i%2 == 0 {
					tx.Abort()
				} else if _, err := tx.commit(nil); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if s := m.Stats(); s.Commits != workers*each/2 || s.Aborts != workers*each/2 {
		t.Fatalf("stats %+v, want %d commits and as many aborts", s, workers*each/2)
	}
}

// A state Read hands out — the store's cached state itself, or with buffered
// writes an overlay that shares its child chunks — is lent: commits that
// follow, which write an unlent cached state in place, never show through it.
func TestReadStateNeverChangesUnderLaterCommits(t *testing.T) {
	order := entity.Key{Type: "Order", ID: "O1"}
	write := func(m *Manager, i int) {
		t.Helper()
		_, err := m.Run(nil, func(tx *Txn) error {
			return tx.Update(order,
				entity.Set("status", "S"+strconv.Itoa(i)),
				entity.Delta("total", 1),
				entity.InsertChild("lineitems", "L"+strconv.Itoa(i), entity.Fields{"product": "widget", "qty": i}),
				entity.SetChildField("lineitems", "L1", "qty", i))
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	image := func(st *entity.State) string {
		return fmt.Sprint(st.Fields, st.Tentative, st.Deleted, st.Children("lineitems"))
	}
	for _, buffered := range []bool{false, true} {
		t.Run(fmt.Sprintf("buffered=%v", buffered), func(t *testing.T) {
			m := newUnit(t, "u1", Options{})
			for i := 1; i <= 70; i++ {
				write(m, i)
			}
			tx := m.begin()
			defer tx.Abort()
			if buffered {
				if err := tx.Update(order, entity.Set("status", "MINE"), entity.SetChildField("lineitems", "L2", "qty", -1)); err != nil {
					t.Fatal(err)
				}
			}
			st, err := tx.Read(order)
			if err != nil {
				t.Fatal(err)
			}
			want := image(st)
			for i := 71; i <= 134; i++ {
				write(m, i)
			}
			if got := image(st); got != want {
				t.Fatalf("a state Read returned changed under its holder:\nwas %s\nnow %s", want, got)
			}
			if cur, _, _ := m.DB().Current(order); cur.Float("total") != 134 {
				t.Fatalf("store total %v, want 134", cur.Float("total"))
			}
		})
	}
}
