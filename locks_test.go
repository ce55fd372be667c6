package repro_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// lockTable is the logical lock table the baselines take their locks in:
// application-level locks on named resources, SAP style (sections 2.3 and
// 3.1), which the kernel itself never takes. The strong baseline locks every
// key it writes (lockAll), E3's pessimistic row does the same, E11 prices a
// coarse resource ("Inventory::plant-1") against fine ones
// ("Inventory/item-7"), and E12's stop-the-world row holds a type's migration
// resource while its live writer checks it.
//
// A lock blocks other owners, never its own: an owner asking again for a
// resource it holds is granted it, upgraded to exclusive when it asks for
// that and no one else holds the resource.
type lockTable struct {
	mu   sync.Mutex
	cond *sync.Cond
	held map[string][]lockHolder // resource -> holders
}

type lockMode int

const (
	shared lockMode = iota
	exclusive
)

type lockHolder struct {
	owner string
	mode  lockMode
}

// errLockTimeout is what an acquire not granted within its timeout returns.
var errLockTimeout = errors.New("lock timeout")

func newLockTable() *lockTable {
	lt := &lockTable{held: map[string][]lockHolder{}}
	lt.cond = sync.NewCond(&lt.mu)
	return lt
}

// compatible reports whether owner may hold a resource in mode beside its
// current holders: owner's own entry never stands in the way.
func compatible(holders []lockHolder, owner string, mode lockMode) bool {
	for _, h := range holders {
		if h.owner != owner && (mode == exclusive || h.mode == exclusive) {
			return false
		}
	}
	return true
}

// acquire grants owner resource in mode, waiting up to timeout for other
// owners to release it; a zero timeout tries once.
func (lt *lockTable) acquire(owner, resource string, mode lockMode, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	lt.mu.Lock()
	defer lt.mu.Unlock()
	for !lt.grantLocked(owner, resource, mode) {
		wait := time.Until(deadline)
		if wait <= 0 {
			return fmt.Errorf("%w: %s on %s", errLockTimeout, owner, resource)
		}
		// The waker takes mu, so it cannot broadcast before Wait is waiting.
		waker := time.AfterFunc(wait, func() {
			lt.mu.Lock()
			lt.cond.Broadcast()
			lt.mu.Unlock()
		})
		lt.cond.Wait()
		waker.Stop()
	}
	return nil
}

func (lt *lockTable) grantLocked(owner, resource string, mode lockMode) bool {
	holders := lt.held[resource]
	if !compatible(holders, owner, mode) {
		return false
	}
	for i := range holders {
		if holders[i].owner == owner {
			holders[i].mode = max(holders[i].mode, mode)
			return true
		}
	}
	lt.held[resource] = append(holders, lockHolder{owner: owner, mode: mode})
	return true
}

// release drops owner's lock on resource, if it holds one.
func (lt *lockTable) release(owner, resource string) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	lt.dropLocked(owner, resource)
	lt.cond.Broadcast()
}

// releaseAll drops every lock owner holds and returns how many it held.
func (lt *lockTable) releaseAll(owner string) int {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	released := 0
	for resource := range lt.held {
		if lt.dropLocked(owner, resource) {
			released++
		}
	}
	lt.cond.Broadcast()
	return released
}

func (lt *lockTable) dropLocked(owner, resource string) bool {
	holders := lt.held[resource]
	for i, h := range holders {
		if h.owner == owner {
			if holders = append(holders[:i], holders[i+1:]...); len(holders) == 0 {
				delete(lt.held, resource)
			} else {
				lt.held[resource] = holders
			}
			return true
		}
	}
	return false
}

// holders returns resource's current holders.
func (lt *lockTable) holders(resource string) []lockHolder {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return append([]lockHolder(nil), lt.held[resource]...)
}

// heldBy returns the resources owner holds, in no particular order.
func (lt *lockTable) heldBy(owner string) []string {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	var out []string
	for resource, holders := range lt.held {
		for _, h := range holders {
			if h.owner == owner {
				out = append(out, resource)
				break
			}
		}
	}
	return out
}

// lockedByOther reports whether another owner holds resource in a mode that
// excludes mode: what a writer checks before touching a resource someone
// else's deferred work still holds (section 2.3).
func (lt *lockTable) lockedByOther(owner, resource string, mode lockMode) bool {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return !compatible(lt.held[resource], owner, mode)
}

func TestSharedCompatibility(t *testing.T) {
	lt := newLockTable()
	if err := lt.acquire("u1", "r", shared, 0); err != nil {
		t.Fatal(err)
	}
	if err := lt.acquire("u2", "r", shared, 0); err != nil {
		t.Fatalf("two shared holders should coexist: %v", err)
	}
	if err := lt.acquire("u3", "r", exclusive, 0); !errors.Is(err, errLockTimeout) {
		t.Fatalf("exclusive over shared should be refused: %v", err)
	}
	if len(lt.holders("r")) != 2 {
		t.Fatalf("holders = %d", len(lt.holders("r")))
	}
}

func TestReentrantOwnerNeverBlocksItself(t *testing.T) {
	// The paper: logical locks "prevent access by other users, not the user
	// who performed the transaction".
	lt := newLockTable()
	if err := lt.acquire("u1", "r", exclusive, 0); err != nil {
		t.Fatal(err)
	}
	if err := lt.acquire("u1", "r", exclusive, 0); err != nil {
		t.Fatalf("re-entrant acquire blocked: %v", err)
	}
	if err := lt.acquire("u1", "r", shared, 0); err != nil {
		t.Fatalf("re-entrant downgrade blocked: %v", err)
	}
	// Still exclusive from others' perspective.
	if !lt.lockedByOther("u2", "r", shared) {
		t.Fatal("resource should be locked for other users")
	}
	if lt.lockedByOther("u1", "r", exclusive) {
		t.Fatal("owner should not be locked out by itself")
	}
}

func TestSharedToExclusiveUpgrade(t *testing.T) {
	lt := newLockTable()
	lt.acquire("u1", "r", shared, 0)
	if err := lt.acquire("u1", "r", exclusive, 0); err != nil {
		t.Fatalf("upgrade with no other holders should succeed: %v", err)
	}
	holders := lt.holders("r")
	if len(holders) != 1 || holders[0].mode != exclusive {
		t.Fatalf("holders = %+v", holders)
	}
	// Upgrade refused while another shared holder exists.
	lt2 := newLockTable()
	lt2.acquire("u1", "r", shared, 0)
	lt2.acquire("u2", "r", shared, 0)
	if err := lt2.acquire("u1", "r", exclusive, 0); !errors.Is(err, errLockTimeout) {
		t.Fatalf("upgrade should be refused beside another shared holder: %v", err)
	}
}

func TestReleaseAll(t *testing.T) {
	lt := newLockTable()
	lt.acquire("u1", "a", exclusive, 0)
	lt.acquire("u1", "b", shared, 0)
	lt.acquire("u2", "b", shared, 0)
	if got := lt.releaseAll("u1"); got != 2 {
		t.Fatalf("releaseAll = %d, want 2", got)
	}
	if len(lt.heldBy("u1")) != 0 {
		t.Fatal("u1 still holds locks")
	}
	if len(lt.heldBy("u2")) != 1 {
		t.Fatal("u2's lock was dropped")
	}
	if got := lt.releaseAll("u1"); got != 0 {
		t.Fatalf("second releaseAll = %d", got)
	}
}

func TestAcquireBlocksUntilRelease(t *testing.T) {
	lt := newLockTable()
	if err := lt.acquire("u1", "r", exclusive, 0); err != nil {
		t.Fatal(err)
	}
	var acquired atomic.Bool
	done := make(chan error, 1)
	go func() {
		err := lt.acquire("u2", "r", exclusive, 5*time.Second)
		acquired.Store(true)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if acquired.Load() {
		t.Fatal("acquire succeeded while lock held")
	}
	lt.release("u1", "r")
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("blocked acquire failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked acquire never completed")
	}
}

func TestAcquireTimeout(t *testing.T) {
	lt := newLockTable()
	lt.acquire("u1", "r", exclusive, 0)
	start := time.Now()
	err := lt.acquire("u2", "r", exclusive, 50*time.Millisecond)
	if !errors.Is(err, errLockTimeout) {
		t.Fatalf("want errLockTimeout, got %v", err)
	}
	if waited := time.Since(start); waited < 50*time.Millisecond || waited > 2*time.Second {
		t.Fatalf("timeout after %v, want 50ms", waited)
	}
}

func TestConcurrentAcquireReleaseNoLostLocks(t *testing.T) {
	lt := newLockTable()
	const workers = 8
	const iterations = 50
	var counter int64 // protected only by the logical lock
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			owner := fmt.Sprintf("w%d", w)
			for i := 0; i < iterations; i++ {
				if err := lt.acquire(owner, "critical", exclusive, 10*time.Second); err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				counter++
				lt.release(owner, "critical")
			}
		}(w)
	}
	wg.Wait()
	if counter != workers*iterations {
		t.Fatalf("counter = %d, want %d (mutual exclusion violated)", counter, workers*iterations)
	}
}
