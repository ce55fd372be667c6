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

// scriptOp is one step of a deterministic per-writer workload script; the
// same scripts drive both the batched and the serial run of the equivalence
// suite.
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
	records := db.RecordsAfter(0)
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

// assertSameStates compares the final state of every key in a against its
// counterpart in b: root fields, live child rows and tentative flags.
func assertSameStates(t *testing.T, a, b *DB) {
	t.Helper()
	keysA, keysB := a.Keys(), b.Keys()
	if len(keysA) != len(keysB) {
		t.Fatalf("key sets differ: %d vs %d", len(keysA), len(keysB))
	}
	for i, key := range keysA {
		if keysB[i] != key {
			t.Fatalf("key sets differ at %d: %s vs %s", i, key, keysB[i])
		}
		stA, _, errA := a.Current(key)
		stB, _, errB := b.Current(key)
		if errA != nil || errB != nil {
			t.Fatalf("Current(%s): %v / %v", key, errA, errB)
		}
		if len(stA.Fields) != len(stB.Fields) {
			t.Fatalf("%s: field counts differ: %v vs %v", key, stA.Fields, stB.Fields)
		}
		for f, v := range stA.Fields {
			if stB.Fields[f] != v {
				t.Fatalf("%s.%s = %v, want %v", key, f, stB.Fields[f], v)
			}
		}
		if stA.Tentative != stB.Tentative {
			t.Fatalf("%s: tentative %v vs %v", key, stA.Tentative, stB.Tentative)
		}
		if got, want := stB.ChildCount("lineitems"), stA.ChildCount("lineitems"); got != want {
			t.Fatalf("%s: child count %d, want %d", key, got, want)
		}
	}
}

// TestGroupCommitSerialEquivalenceRandomized is the equivalence suite: for
// randomized multi-writer workloads, the batched path must produce the same
// final states, the same per-key record order for single-writer keys, and the
// same dense contiguous LSN space as the serial path. Run it under -race (CI
// does) to also exercise the leader/follower handoff.
func TestGroupCommitSerialEquivalenceRandomized(t *testing.T) {
	const writers, opsPerWriter, hotKeys = 8, 60, 3
	for _, seed := range []int64{1, 7, 42} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("seed=%d/shards=%d", seed, shards), func(t *testing.T) {
				scripts := buildScripts(seed, writers, opsPerWriter, hotKeys)

				batched := newTestDB(t, Options{GroupCommit: true, Shards: shards, SnapshotEvery: 16})
				runScriptsConcurrent(t, batched, scripts)

				// The serial reference: same scripts, per-append locking, one
				// writer at a time (any interleaving of different writers is
				// equivalent — private keys are single-writer and hot keys only
				// see commutative deltas).
				serial := newTestDB(t, Options{Shards: shards, SnapshotEvery: 16})
				for w, script := range scripts {
					for i, so := range script {
						if _, err := serial.Append(so.key, so.ops, stamp(int64(w*1000000+i+1)), "gc", so.txnID); err != nil {
							t.Fatalf("serial writer %d op %d: %v", w, i, err)
						}
					}
				}

				assertSameStates(t, batched, serial)
				assertDenseLSNs(t, batched, writers*opsPerWriter)
				assertDenseLSNs(t, serial, writers*opsPerWriter)

				// Per-key record order: a private key is written by exactly one
				// writer, whose appends are sequential, so the batched log must
				// hold its ops in submission order — identical to serial.
				for w, script := range scripts {
					var wantByKey = map[entity.Key][]string{}
					for _, so := range script {
						if so.key.ID[:1] == "w" {
							wantByKey[so.key] = append(wantByKey[so.key], fmt.Sprintf("%v", so.ops[0]))
						}
					}
					for key, want := range wantByKey {
						recs := batched.RecordsFor(key)
						if len(recs) != len(want) {
							t.Fatalf("writer %d key %s: %d records, want %d", w, key, len(recs), len(want))
						}
						for i, rec := range recs {
							if got := fmt.Sprintf("%v", rec.Ops[0]); got != want[i] {
								t.Fatalf("key %s record %d: op %s, want %s (submission order lost)", key, i, got, want[i])
							}
						}
					}
				}
			})
		}
	}
}

// TestGroupCommitPerWriterErrors asserts leader-side error isolation: one
// writer's invalid op-set (strict validation) or duplicate transaction id
// must fail only that writer, never the batch it rode in — and failed
// requests must not burn LSNs.
func TestGroupCommitPerWriterErrors(t *testing.T) {
	db := newTestDB(t, Options{GroupCommit: true, Validation: entity.Strict, Shards: 1})
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
// MarkObsolete against in-flight batched appends: history rewrites must
// invalidate the materialised cache correctly even while a leader is
// committing batches, so no reader is ever served a stale frozen state.
func TestGroupCommitSnapshotCompactObsoleteRace(t *testing.T) {
	db := newTestDB(t, Options{GroupCommit: true, Shards: 4, SnapshotEvery: 8, MaxBatch: 8})
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
	// and read continuously while batches are in flight.
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
	go func() { // snapshotter + compactor
		defer rewriters.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			key := entity.Key{Type: "Account", ID: fmt.Sprintf("R%d", i%keys)}
			if err := db.Snapshot(key); err != nil && !errors.Is(err, ErrNotFound) {
				t.Errorf("Snapshot: %v", err)
				return
			}
			if i%7 == 0 {
				db.Compact(db.HeadLSN() / 2)
			}
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

// TestGroupCommitIdempotenceAndTentative re-runs the core append semantics on
// the batched path: duplicate txn ids are rejected across batches, tentative
// records flag the state and can be withdrawn.
func TestGroupCommitIdempotenceAndTentative(t *testing.T) {
	db := newTestDB(t, Options{GroupCommit: true})
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

// TestCommitHookPerAppend: on the serial path the commit hook fires once per
// append with exactly that record — the baseline group commit amortises.
func TestCommitHookPerAppend(t *testing.T) {
	var calls int
	var total int
	opts := Options{CommitHook: func(recs []Record) {
		calls++
		total += len(recs)
	}}
	db := newTestDB(t, opts)
	key := entity.Key{Type: "Account", ID: "A"}
	for i := 0; i < 5; i++ {
		if _, err := db.Append(key, []entity.Op{entity.Delta("balance", 1)}, stamp(int64(i+1)), "n", ""); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 5 || total != 5 {
		t.Fatalf("hook: %d calls / %d records, want 5/5", calls, total)
	}
}

// TestCommitHookAmortisedByGroupCommit pins the amortisation contract: while
// the leader is inside the hook (a slow log force), followers pile onto the
// queue, and the next drain iteration commits them as ONE batch with ONE hook
// call covering a contiguous LSN run.
func TestCommitHookAmortisedByGroupCommit(t *testing.T) {
	const followers = 4
	firstCall := make(chan struct{})
	release := make(chan struct{})
	var mu sync.Mutex
	var batches [][]uint64
	opts := Options{GroupCommit: true, Shards: 1, CommitHook: func(recs []Record) {
		lsns := make([]uint64, len(recs))
		for i, r := range recs {
			lsns[i] = r.LSN
		}
		mu.Lock()
		batches = append(batches, lsns)
		first := len(batches) == 1
		mu.Unlock()
		if first {
			close(firstCall) // let the followers start...
			<-release        // ...and stall the "log force" until they queued
		}
	}}
	db := newTestDB(t, opts)
	key := entity.Key{Type: "Account", ID: "A"}
	leaderDone := make(chan error, 1)
	go func() {
		_, err := db.Append(key, []entity.Op{entity.Delta("balance", 1)}, stamp(1), "n", "")
		leaderDone <- err
	}()
	<-firstCall
	var wg sync.WaitGroup
	var started sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		started.Add(1)
		go func(i int) {
			defer wg.Done()
			started.Done()
			if _, err := db.Append(key, []entity.Op{entity.Delta("balance", 1)}, stamp(int64(i+2)), "n", ""); err != nil {
				t.Errorf("follower %d: %v", i, err)
			}
		}(i)
	}
	started.Wait()
	// Give the followers a moment to enqueue behind the stalled leader, then
	// release the log force.
	time.Sleep(50 * time.Millisecond)
	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	mu.Lock()
	defer mu.Unlock()
	if len(batches) != 2 {
		t.Fatalf("hook calls = %d (%v), want 2: one for the leader, one amortising all %d followers", len(batches), batches, followers)
	}
	if len(batches[0]) != 1 || len(batches[1]) != followers {
		t.Fatalf("batch sizes = %d/%d, want 1/%d", len(batches[0]), len(batches[1]), followers)
	}
	for i, lsn := range batches[1] {
		if lsn != uint64(i+2) {
			t.Fatalf("batch LSNs %v not a contiguous run from 2", batches[1])
		}
	}
	st, _, err := db.Current(key)
	if err != nil || st.Float("balance") != float64(followers+1) {
		t.Fatalf("final state: %v %v", st, err)
	}
}

// TestGroupCommitLeaderPanicDoesNotWedgeShard: a panic escaping the commit
// path (realistically a user-supplied CommitHook) must propagate to the
// leader's caller but leave the shard usable — leadership released, no writer
// parked forever.
func TestGroupCommitLeaderPanicDoesNotWedgeShard(t *testing.T) {
	armed := true
	opts := Options{GroupCommit: true, Shards: 1, CommitHook: func([]Record) {
		if armed {
			armed = false
			panic("log force exploded")
		}
	}}
	db := newTestDB(t, opts)
	key := entity.Key{Type: "Account", ID: "A"}
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("expected the leader's Append to panic")
			}
		}()
		db.Append(key, []entity.Op{entity.Delta("balance", 1)}, stamp(1), "n", "")
	}()
	// The shard must have released leadership: the next append elects a new
	// leader and commits normally.
	res, err := db.Append(key, []entity.Op{entity.Delta("balance", 1)}, stamp(2), "n", "")
	if err != nil {
		t.Fatalf("append after leader panic: %v", err)
	}
	// The panicking cycle had already installed its record (the hook runs
	// after installation), so the log holds both appends.
	if st, _, _ := db.Current(key); res.Record.LSN != 2 || st.Float("balance") != 2 {
		t.Fatalf("post-panic append: LSN=%d balance=%v, want 2/2", res.Record.LSN, st.Float("balance"))
	}
}

// TestGroupCommitUnknownTypeAndSanitization: failures that precede the queue
// must behave exactly as on the serial path.
func TestGroupCommitUnknownTypeAndSanitization(t *testing.T) {
	db := newTestDB(t, Options{GroupCommit: true})
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
