package lsdb

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/entity"
)

// The commit path under concurrent writers: per-writer errors, history
// rewrites racing appends, and a commit sink that panics mid-cycle.

// scriptOp is one step of a deterministic per-writer workload script.
type scriptOp struct {
	key       entity.Key
	ops       []entity.Op
	txnID     string
	tentative bool
}

// buildScripts generates one deterministic op script per writer: each writer
// mixes Set/Delta/InsertChild traffic on its own private keys with
// commutative Delta traffic on a small shared hot set, so concurrent
// interleavings of different writers still have one well-defined final state.
func buildScripts(seed int64, writers, opsPerWriter, hotKeys int) [][]scriptOp {
	rng := rand.New(rand.NewSource(seed))
	scripts := make([][]scriptOp, writers)
	for w := range scripts {
		script := make([]scriptOp, 0, opsPerWriter)
		for i := 0; i < opsPerWriter; i++ {
			var so scriptOp
			switch rng.Intn(5) {
			case 0: // shared hot key, commutative increment
				so.key = entity.Key{Type: "Account", ID: fmt.Sprintf("hot-%d", rng.Intn(hotKeys))}
				so.ops = []entity.Op{entity.Delta("balance", float64(1+rng.Intn(9)))}
			case 1: // private key, non-commutative field write
				so.key = entity.Key{Type: "Account", ID: fmt.Sprintf("w%d-a%d", w, rng.Intn(4))}
				so.ops = []entity.Op{entity.Set("owner", fmt.Sprintf("owner-%d-%d", w, i))}
			case 2: // private key, child-row insert
				so.key = entity.Key{Type: "Order", ID: fmt.Sprintf("w%d-o%d", w, rng.Intn(3))}
				so.ops = []entity.Op{entity.InsertChild("lineitems", fmt.Sprintf("w%d-L%d", w, i), entity.Fields{"product": "widget", "qty": rng.Intn(7)})}
			case 3: // private key, idempotence-tracked write
				so.key = entity.Key{Type: "Account", ID: fmt.Sprintf("w%d-a%d", w, rng.Intn(4))}
				so.ops = []entity.Op{entity.Delta("balance", 1)}
				so.txnID = fmt.Sprintf("w%d-t%d", w, i)
			default: // private key, tentative promise
				so.key = entity.Key{Type: "Account", ID: fmt.Sprintf("w%d-a%d", w, rng.Intn(4))}
				so.ops = []entity.Op{entity.Delta("balance", 2)}
				so.txnID = fmt.Sprintf("w%d-tt%d", w, i)
				so.tentative = true
			}
			script = append(script, so)
		}
		scripts[w] = script
	}
	return scripts
}

// runScriptsConcurrent replays every script on its own goroutine.
func runScriptsConcurrent(t *testing.T, db *DB, scripts [][]scriptOp) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, len(scripts))
	for w, script := range scripts {
		wg.Add(1)
		go func(w int, script []scriptOp) {
			defer wg.Done()
			for i, so := range script {
				if _, err := db.Append(so.key, so.ops, stamp(int64(w*1000000+i+1)), "gc", so.txnID); err != nil {
					errs <- fmt.Errorf("writer %d op %d: %w", w, i, err)
					return
				}
			}
		}(w, script)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// assertDenseLSNs checks the global log is exactly 1..n with no gaps or
// duplicates — failed or duplicate appends must not burn sequence numbers.
func assertDenseLSNs(t *testing.T, db *DB, n int) {
	t.Helper()
	records := db.RecordsAfterN(0, 0)
	if len(records) != n {
		t.Fatalf("log has %d records, want %d", len(records), n)
	}
	for i, rec := range records {
		if rec.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d, want %d (log not dense)", i, rec.LSN, i+1)
		}
	}
	if head := db.HeadLSN(); head != uint64(n) {
		t.Fatalf("HeadLSN = %d, want %d", head, n)
	}
}

// TestGroupCommitPerWriterErrors asserts error isolation between concurrent
// writers on one shard: one writer's invalid op-set (strict validation) or
// duplicate transaction id fails only that writer — and failed appends do
// not burn LSNs.
func TestGroupCommitPerWriterErrors(t *testing.T) {
	db := newTestDB(t, Options{Validation: entity.Strict, Shards: 1})
	const writers, repeats = 8, 25
	var good, bad, dups atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < repeats; i++ {
				key := entity.Key{Type: "Account", ID: fmt.Sprintf("E%d", i)}
				switch {
				case w == 0:
					// The poison writer: strict mode rejects the unknown field.
					_, err := db.Append(key, []entity.Op{entity.Set("no_such_field", 1)}, stamp(int64(i+1)), "gc", "")
					if !errors.Is(err, entity.ErrUnknownField) {
						t.Errorf("poison writer: err = %v, want ErrUnknownField", err)
						return
					}
					bad.Add(1)
				case w == 1:
					// The duplicate writer: races writer 2 for the same txn id;
					// exactly one of the two may win each round.
					_, err := db.Append(key, []entity.Op{entity.Delta("balance", 1)}, stamp(int64(i+1)), "gc", fmt.Sprintf("shared-%d", i))
					if err == nil {
						good.Add(1)
					} else if errors.Is(err, ErrDuplicateTxn) {
						dups.Add(1)
					} else {
						t.Errorf("dup writer: unexpected err %v", err)
						return
					}
				case w == 2:
					_, err := db.Append(key, []entity.Op{entity.Delta("balance", 1)}, stamp(int64(i+1)), "gc", fmt.Sprintf("shared-%d", i))
					if err == nil {
						good.Add(1)
					} else if errors.Is(err, ErrDuplicateTxn) {
						dups.Add(1)
					} else {
						t.Errorf("dup writer: unexpected err %v", err)
						return
					}
				default:
					if _, err := db.Append(key, []entity.Op{entity.Delta("balance", 1)}, stamp(int64(i+1)), "gc", ""); err != nil {
						t.Errorf("healthy writer %d: %v", w, err)
						return
					}
					good.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// Per round: writers 3..7 always commit (5), exactly one of writers 1/2
	// wins the shared txn id, writer 0 always fails. 6 commits, 1 dup, 1
	// invalid per round.
	if got, want := good.Load(), int64((writers-2)*repeats); got != want {
		t.Fatalf("successful appends = %d, want %d", got, want)
	}
	if got, want := dups.Load(), int64(repeats); got != want {
		t.Fatalf("duplicate-txn failures = %d, want %d", got, want)
	}
	if got, want := bad.Load(), int64(repeats); got != want {
		t.Fatalf("validation failures = %d, want %d", got, want)
	}
	assertDenseLSNs(t, db, (writers-2)*repeats)
	for i := 0; i < repeats; i++ {
		st, _, err := db.Current(entity.Key{Type: "Account", ID: fmt.Sprintf("E%d", i)})
		if err != nil {
			t.Fatalf("Current: %v", err)
		}
		if got := st.Float("balance"); got != float64(writers-2) {
			t.Fatalf("E%d balance = %v, want %d", i, got, writers-2)
		}
	}
}

// TestGroupCommitSnapshotCompactObsoleteRace races Snapshot, Compact and
// MarkObsolete against concurrent writers: history rewrites must invalidate
// the materialised cache correctly while appends commit, so no reader is
// ever served a stale frozen state.
func TestGroupCommitSnapshotCompactObsoleteRace(t *testing.T) {
	db := newTestDB(t, Options{Shards: 4, SnapshotEvery: 8})
	const writers, perWriter, keys = 6, 80, 8
	var expected [keys]atomic.Int64 // expected final balance per key
	type tentativeRec struct {
		key   entity.Key
		txnID string
	}
	obsoletable := make(chan tentativeRec, writers*perWriter)

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				ki := (w*perWriter + i) % keys
				key := entity.Key{Type: "Account", ID: fmt.Sprintf("R%d", ki)}
				if i%5 == 0 {
					txnID := fmt.Sprintf("w%d-i%d", w, i)
					if _, err := db.AppendTentative(key, []entity.Op{entity.Delta("balance", 1)}, stamp(int64(w*1000+i+1)), "gc", txnID); err != nil {
						t.Errorf("writer %d: %v", w, err)
						return
					}
					expected[ki].Add(1)
					obsoletable <- tentativeRec{key: key, txnID: txnID}
				} else {
					if _, err := db.Append(key, []entity.Op{entity.Delta("balance", 1)}, stamp(int64(w*1000+i+1)), "gc", ""); err != nil {
						t.Errorf("writer %d: %v", w, err)
						return
					}
					expected[ki].Add(1)
				}
			}
		}(w)
	}

	// The rewriters: withdraw tentative promises, force snapshots, compact,
	// and read continuously while appends are in flight.
	stop := make(chan struct{})
	var rewriters sync.WaitGroup
	rewriters.Add(1)
	go func() { // obsoleter
		defer rewriters.Done()
		for rec := range obsoletable {
			err := db.MarkObsolete(rec.key, rec.txnID)
			if errors.Is(err, ErrNotFound) {
				// The compactor archived the key first; the promise is baked
				// into the summary and can no longer be withdrawn, so the
				// expected balance keeps it.
				continue
			}
			if err != nil {
				t.Errorf("MarkObsolete(%s, %s): %v", rec.key, rec.txnID, err)
				return
			}
			ki := 0
			fmt.Sscanf(rec.key.ID, "R%d", &ki)
			expected[ki].Add(-1)
		}
	}()
	rewriters.Add(1)
	go func() { // compactor; the appends snapshot every 8th version
		defer rewriters.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			db.Compact(db.HeadLSN() / 2)
		}
	}()
	rewriters.Add(1)
	go func() { // reader: every served state must be internally consistent
		defer rewriters.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			key := entity.Key{Type: "Account", ID: fmt.Sprintf("R%d", i%keys)}
			st, _, err := db.Current(key)
			if errors.Is(err, ErrNotFound) {
				continue
			}
			if err != nil {
				t.Errorf("Current: %v", err)
				return
			}
			if bal := st.Float("balance"); bal < 0 || bal > float64(writers*perWriter) {
				t.Errorf("implausible balance %v served for %s", bal, key)
				return
			}
		}
	}()

	wg.Wait()
	close(obsoletable)
	close(stop)
	rewriters.Wait()
	if t.Failed() {
		return
	}

	// Every key's final materialised state must equal the live-record count:
	// all appends minus all withdrawn promises, with no stale cache entry
	// shadowing a rewrite.
	for ki := 0; ki < keys; ki++ {
		key := entity.Key{Type: "Account", ID: fmt.Sprintf("R%d", ki)}
		st, _, err := db.Current(key)
		if err != nil {
			t.Fatalf("Current(%s): %v", key, err)
		}
		if got, want := st.Float("balance"), float64(expected[ki].Load()); got != want {
			t.Fatalf("%s: balance %v, want %v (stale state served after rewrite?)", key, got, want)
		}
	}
}

// TestGroupCommitIdempotenceAndTentative pins the core append semantics:
// duplicate txn ids are rejected, tentative records flag the state and can
// be withdrawn.
func TestGroupCommitIdempotenceAndTentative(t *testing.T) {
	db := newTestDB(t, Options{})
	key := entity.Key{Type: "Account", ID: "A"}
	if _, err := db.Append(key, []entity.Op{entity.Delta("balance", 10)}, stamp(1), "n", "t1"); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if _, err := db.Append(key, []entity.Op{entity.Delta("balance", 10)}, stamp(2), "n", "t1"); !errors.Is(err, ErrDuplicateTxn) {
		t.Fatalf("duplicate append err = %v, want ErrDuplicateTxn", err)
	}
	if _, err := db.AppendTentative(key, []entity.Op{entity.Delta("balance", 5)}, stamp(3), "n", "t2"); err != nil {
		t.Fatalf("AppendTentative: %v", err)
	}
	if st, _, _ := db.Current(key); !st.Tentative || st.Float("balance") != 15 {
		t.Fatalf("tentative state = %+v", st)
	}
	if err := db.MarkObsolete(key, "t2"); err != nil {
		t.Fatalf("MarkObsolete: %v", err)
	}
	st, _, err := db.Current(key)
	if err != nil {
		t.Fatalf("Current: %v", err)
	}
	if st.Float("balance") != 10 || st.Tentative {
		t.Fatalf("post-withdrawal state = %v tentative=%v", st.Float("balance"), st.Tentative)
	}
}

// TestCommitSinkPanicDoesNotWedgeShard: a commit sink whose capture panics
// (on an append, and on a settlement) must release the shard lock. The panic
// reaches the writer, what the cycle captured stays committed, and the next
// append and read on the shard run normally instead of blocking forever.
func TestCommitSinkPanicDoesNotWedgeShard(t *testing.T) {
	ops := []entity.Op{entity.Delta("balance", 1)}
	for _, c := range []struct {
		name        string
		panicking   func(db *DB, key entity.Key)
		wantLSN     uint64
		wantBalance float64
	}{
		// The panicking append's record stays: 1 + 5 + 1, then the follow-up.
		{"append", func(db *DB, key entity.Key) { db.Append(key, ops, stamp(3), "n", "") }, 4, 8},
		// The panicking settlement stays applied: the promise of 5 is broken.
		{"settlement", func(db *DB, key entity.Key) {
			db.Append(key, []entity.Op{entity.BreakPromise("promise", "", "")}, stamp(3), "n", "")
		}, 4, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			var armed atomic.Bool
			db := newTestDB(t, Options{Shards: 1})
			db.SetCommitSink(func([]Record) func() error {
				if armed.CompareAndSwap(true, false) {
					panic("capture exploded")
				}
				return nil
			})
			key := acct("A")
			if _, err := db.Append(key, ops, stamp(1), "n", ""); err != nil {
				t.Fatal(err)
			}
			if _, err := db.AppendTentative(key, []entity.Op{entity.Delta("balance", 5)}, stamp(2), "n", "promise"); err != nil {
				t.Fatal(err)
			}
			armed.Store(true)
			func() {
				defer func() {
					if r := recover(); r == nil {
						t.Fatal("the capture's panic did not reach the writer")
					}
				}()
				c.panicking(db, key)
			}()
			type outcome struct {
				lsn     uint64
				balance float64
				err     error
			}
			done := make(chan outcome, 1)
			go func() {
				res, err := db.Append(key, ops, stamp(4), "n", "")
				if err != nil {
					done <- outcome{err: err}
					return
				}
				st, _, err := db.Current(key)
				if err != nil {
					done <- outcome{err: err}
					return
				}
				done <- outcome{lsn: res.Record.LSN, balance: st.Float("balance")}
			}()
			select {
			case got := <-done:
				if got.err != nil || got.lsn != c.wantLSN || got.balance != c.wantBalance {
					t.Fatalf("after the panic: LSN %d, balance %v, err %v; want %d, %v", got.lsn, got.balance, got.err, c.wantLSN, c.wantBalance)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("the shard is wedged: the append after the panic still blocks after 2s")
			}
		})
	}
}

// TestGroupCommitUnknownTypeAndSanitization: failures that precede the
// commit cycle take no lock and leave no record.
func TestGroupCommitUnknownTypeAndSanitization(t *testing.T) {
	db := newTestDB(t, Options{})
	if _, err := db.Append(entity.Key{Type: "Nope", ID: "x"}, []entity.Op{entity.Delta("balance", 1)}, stamp(1), "n", ""); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("err = %v, want ErrUnknownType", err)
	}
	type opaque struct{ X int }
	bad := []entity.Op{{Kind: entity.OpSet, Field: "owner", Value: &opaque{1}}}
	if _, err := db.Append(entity.Key{Type: "Account", ID: "A"}, bad, stamp(1), "n", ""); !errors.Is(err, entity.ErrUnsafeValue) {
		t.Fatalf("unsanitizable value: err = %v, want ErrUnsafeValue", err)
	}
	if db.Len() != 0 {
		t.Fatalf("failed appends left %d records", db.Len())
	}
}
