package repro_test

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro"

	"repro/internal/entity"
	"repro/internal/lsdb"
	"repro/internal/txn"
)

// strong is the conventional strongly consistent discipline the paper argues
// against, built over the SOUPS kernel's public surface so experiments
// E1, E2, E3, E6 and E10 can price it:
//   - pessimistic concurrency control: exclusive logical locks (its own
//     lockTable) around Kernel.Transact (principle 2.10);
//   - two-phase commit for multi-entity work: lock every key, read each one
//     (prepare), commit one focused transaction per key (principle 2.5);
//   - strict validation at entry: a write that would be a managed violation,
//     or that sets a dangling reference, is refused (principle 2.2);
//   - synchronous secondary data: aggregates catch up after every write
//     (principle 2.3).
type strong struct {
	k     *repro.Kernel
	locks *lockTable
	// timeout bounds every lock wait.
	timeout time.Duration
}

func newStrong(k *repro.Kernel) *strong {
	return &strong{k: k, locks: newLockTable(), timeout: 2 * time.Second}
}

// lockOwners numbers lockAll's callers, so each holds its locks alone.
var lockOwners atomic.Uint64

// lockAll runs fn holding exclusive logical locks on keys in lt, taken in
// sorted order so that two callers cannot deadlock. A lock not granted
// within timeout fails the call with an error wrapping errLockTimeout.
func lockAll(lt *lockTable, keys []repro.Key, timeout time.Duration, fn func() error) error {
	resources := make([]string, len(keys))
	for i, key := range keys {
		resources[i] = key.String()
	}
	slices.Sort(resources)
	owner := "strong-" + strconv.FormatUint(lockOwners.Add(1), 10)
	defer lt.releaseAll(owner)
	for _, res := range slices.Compact(resources) {
		if err := lt.acquire(owner, res, exclusive, timeout); err != nil {
			return err
		}
	}
	return fn()
}

// errOptimisticConflict is what optimistic returns when a key it read moved.
var errOptimisticConflict = errors.New("optimistic conflict")

// optimistic runs fn in one transaction of mgr under optimistic concurrency
// control, E3's middle row: the head LSN of every key in reads is recorded
// before fn runs and checked again after it, just before the commit, and a
// head that moved aborts the transaction with errOptimisticConflict. The
// check and the commit are not atomic: a write landing between them goes
// unseen.
func optimistic(mgr *txn.Manager, reads []repro.Key, fn func(*txn.Txn) error) error {
	head := func(key repro.Key) (uint64, error) {
		_, lsn, err := mgr.DB().Current(key)
		if errors.Is(err, lsdb.ErrNotFound) {
			return 0, nil
		}
		return lsn, err
	}
	saw := make([]uint64, len(reads))
	for i, key := range reads {
		var err error
		if saw[i], err = head(key); err != nil {
			return err
		}
	}
	_, err := mgr.Run(nil, func(t *txn.Txn) error {
		if err := fn(t); err != nil {
			return err
		}
		for i, key := range reads {
			now, err := head(key)
			if err != nil {
				return err
			}
			if now != saw[i] {
				return fmt.Errorf("%w: %s changed (read at %d, now %d)", errOptimisticConflict, key, saw[i], now)
			}
		}
		return nil
	})
	return err
}

// Transact runs fn in one transaction on key under an exclusive lock, then
// brings the aggregates up to date.
func (s *strong) Transact(key repro.Key, fn func(*repro.Txn) error) (repro.CommitResult, error) {
	var res repro.CommitResult
	err := lockAll(s.locks, []repro.Key{key}, s.timeout, func() (err error) {
		res, err = s.k.Transact(key, fn)
		return err
	})
	if err == nil {
		s.k.CatchUpAggregates()
	}
	return res, err
}

// syncUpdate is Kernel.Update with synchronous secondary data alone: no
// locks, no strict entry.
func (s *strong) syncUpdate(key repro.Key, ops ...repro.Op) (repro.CommitResult, error) {
	res, err := s.k.Update(key, ops...)
	if err == nil {
		s.k.CatchUpAggregates()
	}
	return res, err
}

// Update applies ops to key after strict entry checks, pessimistically.
func (s *strong) Update(key repro.Key, ops ...repro.Op) (repro.CommitResult, error) {
	return s.Transact(key, func(t *repro.Txn) error {
		st, err := t.Read(key)
		if err != nil {
			return err
		}
		if err := s.strictEntry(st, ops); err != nil {
			return err
		}
		return t.Update(key, ops...)
	})
}

// strictEntry refuses ops that would not apply to st under strict
// validation, and ops that set a Reference field to an entity that does not
// exist.
func (s *strong) strictEntry(st *repro.State, ops []repro.Op) error {
	vt, err := s.k.SchemaRegistry().Active(st.Key.Type)
	if err != nil {
		return err
	}
	if _, _, err := entity.Apply(vt.Type, st, ops, entity.Strict); err != nil {
		return err
	}
	for _, op := range ops {
		ref, _ := op.Value.(string)
		if op.Kind != entity.OpSet || ref == "" {
			continue
		}
		for _, f := range vt.Type.Fields {
			if f.Name != op.Field || f.Type != repro.Reference {
				continue
			}
			target, err := entity.ParseKey(ref)
			if err != nil {
				target = repro.Key{Type: f.RefType, ID: ref}
			}
			if !s.k.Exists(target) {
				return fmt.Errorf("dangling reference %s.%s -> %s", st.Key.Type, op.Field, target)
			}
		}
	}
	return nil
}

// TransactMulti applies writes by two-phase commit: it locks every key, reads
// each one (prepare), then commits one transaction per key before it
// unlocks. No reader of those locks sees half a transfer; a commit that
// fails after another succeeded is 2PC's in-doubt case and is returned.
func (s *strong) TransactMulti(writes []repro.MultiWrite) error {
	keys := make([]repro.Key, len(writes))
	for i, w := range writes {
		keys[i] = w.Key
	}
	return lockAll(s.locks, keys, s.timeout, func() error {
		for _, key := range keys {
			if _, err := s.k.Read(key); err != nil && !errors.Is(err, lsdb.ErrNotFound) {
				return err
			}
		}
		for _, w := range writes {
			if _, err := s.k.Transact(w.Key, func(t *repro.Txn) error { return t.Update(w.Key, w.Ops...) }); err != nil {
				return err
			}
		}
		return nil
	})
}

// TestStrongBaseline is the fixture's contract: what the experiments rely
// on the baseline to do.
func TestStrongBaseline(t *testing.T) {
	open := func(t *testing.T, units int) (*repro.Kernel, *strong) {
		k, err := repro.Bootstrap(repro.Options{Node: "strong", Units: units}, repro.StandardTypes()...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(k.Close)
		return k, newStrong(k)
	}
	account := func(i int) repro.Key { return repro.Key{Type: "Account", ID: fmt.Sprintf("account-%04d", i)} }
	balance := func(t *testing.T, k *repro.Kernel, key repro.Key) float64 {
		t.Helper()
		st, err := k.Read(key)
		if err != nil {
			t.Fatalf("read %s: %v", key, err)
		}
		return st.Float("balance")
	}

	t.Run("2pc-transfer-between-two-accounts", func(t *testing.T) {
		// One transfer of 50 between two accounts on a four-unit kernel:
		// both balances read back settled once TransactMulti returns.
		k, s := open(t, 4)
		err := s.TransactMulti([]repro.MultiWrite{
			{Key: account(0), Ops: []repro.Op{repro.Delta("balance", -50).Described("transfer out")}},
			{Key: account(1), Ops: []repro.Op{repro.Delta("balance", 50).Described("transfer in")}},
		})
		if err != nil {
			t.Fatalf("TransactMulti: %v", err)
		}
		if a, b := balance(t, k, account(0)), balance(t, k, account(1)); a != -50 || b != 50 {
			t.Fatalf("balances = %v / %v", a, b)
		}
	})

	t.Run("2pc-lands-both-halves", func(t *testing.T) {
		// Eight transfers out of one account on a four-unit kernel: every
		// half is visible as soon as TransactMulti returns, with nothing left
		// queued for a process step to deliver.
		k, s := open(t, 4)
		for i := 1; i <= 8; i++ {
			err := s.TransactMulti([]repro.MultiWrite{
				{Key: account(0), Ops: []repro.Op{repro.Delta("balance", -10)}},
				{Key: account(i), Ops: []repro.Op{repro.Delta("balance", 10)}},
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if k.QueueDepth() != 0 {
			t.Fatalf("2PC left %d events queued", k.QueueDepth())
		}
		if got := balance(t, k, account(0)); got != -80 {
			t.Fatalf("source balance %v, want -80", got)
		}
		for i := 1; i <= 8; i++ {
			if got := balance(t, k, account(i)); got != 10 {
				t.Fatalf("%s balance %v, want 10", account(i), got)
			}
		}
	})

	t.Run("blocked-writer-times-out", func(t *testing.T) {
		k, s := open(t, 1)
		s.timeout = 20 * time.Millisecond
		key := account(1)
		if err := s.locks.acquire("first-writer", key.String(), exclusive, 0); err != nil {
			t.Fatal(err)
		}
		_, err := s.Update(key, repro.Delta("balance", 5))
		if !errors.Is(err, errLockTimeout) {
			t.Fatalf("second writer got %v, want a lock timeout", err)
		}
		if k.Exists(key) {
			t.Fatal("the timed-out write landed")
		}
		s.locks.releaseAll("first-writer")
		if _, err := s.Update(key, repro.Delta("balance", 5)); err != nil {
			t.Fatalf("write after release: %v", err)
		}
		if got := balance(t, k, key); got != 5 {
			t.Fatalf("balance %v, want 5", got)
		}
	})

	t.Run("2pc-aborts-when-a-key-stays-locked", func(t *testing.T) {
		// Another owner holds the second key past the timeout: prepare
		// fails there, and neither half lands.
		k, s := open(t, 4)
		s.timeout = 20 * time.Millisecond
		if err := s.locks.acquire("other", account(2).String(), exclusive, 0); err != nil {
			t.Fatal(err)
		}
		err := s.TransactMulti([]repro.MultiWrite{
			{Key: account(1), Ops: []repro.Op{repro.Delta("balance", -50)}},
			{Key: account(2), Ops: []repro.Op{repro.Delta("balance", 50)}},
		})
		if !errors.Is(err, errLockTimeout) {
			t.Fatalf("TransactMulti got %v, want a lock timeout", err)
		}
		if k.Exists(account(1)) || k.Exists(account(2)) {
			t.Fatal("an aborted transfer applied a half")
		}
		if held := s.locks.heldBy("other"); len(held) != 1 {
			t.Fatalf("other owner holds %v", held)
		}
		if n := len(s.locks.holders(account(1).String())); n != 0 {
			t.Fatalf("the aborted transfer left %d locks on its first key", n)
		}
	})

	t.Run("strict-entry-rejects", func(t *testing.T) {
		k, s := open(t, 2)
		if _, err := s.Update(repro.Key{Type: "Order", ID: "O1"}, repro.Set("bogus", 1)); err == nil {
			t.Fatal("strict entry accepted an unknown field")
		}
		dangling := repro.Key{Type: "Order", ID: "O2"}
		if _, err := s.Update(dangling, repro.Set("customer", "Customer/C1")); err == nil {
			t.Fatal("strict entry accepted a dangling reference")
		}
		if k.Exists(repro.Key{Type: "Order", ID: "O1"}) || k.Exists(dangling) || k.WarningCount() != 0 {
			t.Fatal("a refused write left a record or a warning")
		}
		if _, err := s.Update(repro.Key{Type: "Customer", ID: "C1"}, repro.Set("name", "known")); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Update(dangling, repro.Set("customer", "Customer/C1")); err != nil {
			t.Fatalf("reference to an existing customer refused: %v", err)
		}
	})

	t.Run("aggregate-fresh-after-write", func(t *testing.T) {
		k, s := open(t, 2)
		k.DefineSumAggregate("revenue", "Order", "total", "")
		for i := 1; i <= 3; i++ {
			if _, err := s.Update(repro.Key{Type: "Order", ID: fmt.Sprintf("O%d", i)}, repro.Set("total", 25.0)); err != nil {
				t.Fatal(err)
			}
			if v, _ := k.Sum("revenue", ""); v != 25*float64(i) || k.AggregateStaleness() != 0 {
				t.Fatalf("after write %d: revenue %v, %d records unfolded", i, v, k.AggregateStaleness())
			}
		}
	})
}
