// Package locks implements SAP-style logical locks: coarse-grained,
// application-level locks that are held across process steps and database
// transactions, independently of any storage-level latching. The paper notes
// (sections 2.3 and 3.1) that SAP uses logical locks with coarse granularity
// to avoid database bottlenecks: the lock prevents access by *other* users,
// not by the user (owner) who performed the transaction, and it is released
// when the deferred asynchronous work completes.
package locks

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Mode is the sharing mode of a lock request.
type Mode int

// Lock modes.
const (
	// Shared locks allow other shared holders but exclude exclusive ones.
	Shared Mode = iota
	// Exclusive locks exclude all other owners.
	Exclusive
)

// String returns the mode name.
func (m Mode) String() string {
	if m == Shared {
		return "shared"
	}
	return "exclusive"
}

// Common errors.
var (
	// ErrConflict is returned when the resource is held in an incompatible
	// mode by another owner.
	ErrConflict = errors.New("locks: conflict")
	// ErrNotHeld is returned when releasing a lock the owner does not hold.
	ErrNotHeld = errors.New("locks: not held")
	// ErrTimeout is returned when a blocking acquire exceeds its deadline.
	ErrTimeout = errors.New("locks: timeout")
)

// Owner identifies the holder of a logical lock: a user session, a process
// instance or a deferred-update worker.
type Owner string

// Lock describes one held logical lock.
type Lock struct {
	Resource string
	Owner    Owner
	Mode     Mode
	Acquired time.Time
	Expires  time.Time // zero means no expiry
}

// Options configure a Manager.
type Options struct {
	// DefaultTTL bounds how long a lock may be held before it expires and is
	// reclaimed; zero means locks never expire on their own.
	DefaultTTL time.Duration
	// Clock supplies time (tests inject a fake source).
	Clock func() time.Time
}

// Manager grants and tracks logical locks. All methods are safe for
// concurrent use.
type Manager struct {
	opts Options

	mu    sync.Mutex
	cond  *sync.Cond
	held  map[string][]Lock // resource -> holders
	waits uint64
	denls uint64
}

// NewManager creates a lock manager.
func NewManager(opts Options) *Manager {
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	m := &Manager{opts: opts, held: map[string][]Lock{}}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// compatible reports whether a new request by owner in mode can coexist with
// the current holders of the resource. Re-entrant requests by the same owner
// are always compatible: the paper's point is that logical locks block other
// users, never the owner itself.
func compatible(holders []Lock, owner Owner, mode Mode) bool {
	for _, h := range holders {
		if h.Owner == owner {
			continue
		}
		if mode == Exclusive || h.Mode == Exclusive {
			return false
		}
	}
	return true
}

// TryAcquire attempts to acquire the lock without waiting. ttl of zero uses
// the manager default.
func (m *Manager) TryAcquire(owner Owner, resource string, mode Mode, ttl time.Duration) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.acquireLocked(owner, resource, mode, ttl)
}

// Acquire blocks until the lock is granted or the timeout elapses.
func (m *Manager) Acquire(owner Owner, resource string, mode Mode, ttl, timeout time.Duration) error {
	deadline := m.opts.Clock().Add(timeout)
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		err := m.acquireLocked(owner, resource, mode, ttl)
		if err == nil {
			return nil
		}
		if !errors.Is(err, ErrConflict) {
			return err
		}
		if !m.opts.Clock().Before(deadline) {
			m.denls++
			return fmt.Errorf("%w: %s on %s", ErrTimeout, owner, resource)
		}
		m.waits++
		// The waker takes the lock, so it cannot broadcast before Wait is
		// waiting: a wake-up lost that way would block the caller for good.
		waker := time.AfterFunc(2*time.Millisecond, func() {
			m.mu.Lock()
			m.cond.Broadcast()
			m.mu.Unlock()
		})
		m.cond.Wait()
		waker.Stop()
	}
}

func (m *Manager) acquireLocked(owner Owner, resource string, mode Mode, ttl time.Duration) error {
	now := m.opts.Clock()
	m.expireLocked(resource, now)
	holders := m.held[resource]
	// Re-entrant upgrade/downgrade: replace this owner's existing entry.
	for i, h := range holders {
		if h.Owner == owner {
			if !compatible(removeAt(holders, i), owner, mode) {
				return fmt.Errorf("%w: upgrade of %s on %s blocked", ErrConflict, owner, resource)
			}
			holders[i].Mode = maxMode(h.Mode, mode)
			holders[i].Expires = m.expiry(now, ttl)
			m.held[resource] = holders
			return nil
		}
	}
	if !compatible(holders, owner, mode) {
		return fmt.Errorf("%w: %s wants %s on %s", ErrConflict, owner, mode, resource)
	}
	m.held[resource] = append(holders, Lock{
		Resource: resource, Owner: owner, Mode: mode,
		Acquired: now, Expires: m.expiry(now, ttl),
	})
	return nil
}

func maxMode(a, b Mode) Mode {
	if a == Exclusive || b == Exclusive {
		return Exclusive
	}
	return Shared
}

func removeAt(ls []Lock, i int) []Lock {
	out := make([]Lock, 0, len(ls)-1)
	out = append(out, ls[:i]...)
	return append(out, ls[i+1:]...)
}

func (m *Manager) expiry(now time.Time, ttl time.Duration) time.Time {
	if ttl <= 0 {
		ttl = m.opts.DefaultTTL
	}
	if ttl <= 0 {
		return time.Time{}
	}
	return now.Add(ttl)
}

// expireLocked drops expired holders of the resource.
func (m *Manager) expireLocked(resource string, now time.Time) {
	holders := m.held[resource]
	kept := holders[:0]
	for _, h := range holders {
		if h.Expires.IsZero() || h.Expires.After(now) {
			kept = append(kept, h)
		}
	}
	if len(kept) == 0 {
		delete(m.held, resource)
		return
	}
	m.held[resource] = kept
}

// Release drops the owner's lock on the resource.
func (m *Manager) Release(owner Owner, resource string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	holders := m.held[resource]
	for i, h := range holders {
		if h.Owner == owner {
			rest := removeAt(holders, i)
			if len(rest) == 0 {
				delete(m.held, resource)
			} else {
				m.held[resource] = rest
			}
			m.cond.Broadcast()
			return nil
		}
	}
	return fmt.Errorf("%w: %s on %s", ErrNotHeld, owner, resource)
}

// ReleaseAll drops every lock the owner holds (end of a process or of the
// deferred update that the lock protected) and returns how many were
// released.
func (m *Manager) ReleaseAll(owner Owner) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	released := 0
	for res, holders := range m.held {
		kept := holders[:0]
		for _, h := range holders {
			if h.Owner == owner {
				released++
				continue
			}
			kept = append(kept, h)
		}
		if len(kept) == 0 {
			delete(m.held, res)
		} else {
			m.held[res] = kept
		}
	}
	if released > 0 {
		m.cond.Broadcast()
	}
	return released
}

// Holders returns the current holders of a resource (expired entries
// excluded).
func (m *Manager) Holders(resource string) []Lock {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.expireLocked(resource, m.opts.Clock())
	return append([]Lock(nil), m.held[resource]...)
}

// HeldBy returns every resource the owner currently holds, sorted.
func (m *Manager) HeldBy(owner Owner) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for res, holders := range m.held {
		for _, h := range holders {
			if h.Owner == owner && (h.Expires.IsZero() || h.Expires.After(m.opts.Clock())) {
				out = append(out, res)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// IsLockedByOther reports whether the resource is held by any owner other
// than the given one in a mode incompatible with the requested mode. This is
// what the SAP transaction model checks before letting a different user
// touch an entity whose deferred updates are still pending (section 2.3).
func (m *Manager) IsLockedByOther(owner Owner, resource string, mode Mode) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.expireLocked(resource, m.opts.Clock())
	return !compatible(m.held[resource], owner, mode)
}

// Stats returns (waits, timeouts) counters accumulated by blocking acquires.
func (m *Manager) Stats() (uint64, uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.waits, m.denls
}

// CoarseResource builds a coarse-granularity resource name from an entity
// type and a grouping key, e.g. CoarseResource("Inventory", "plant-7")
// locks all inventory of one plant with a single logical lock rather than one
// lock per item — the coarse-granularity technique section 3.1 mentions.
func CoarseResource(entityType, group string) string {
	return entityType + "::" + group
}

// FineResource builds a per-entity resource name.
func FineResource(entityType, id string) string {
	return entityType + "/" + id
}

// IsCoarse reports whether the resource name was built by CoarseResource.
func IsCoarse(resource string) bool { return strings.Contains(resource, "::") }

// Guard couples acquisition and release for the common
// "lock, run, unlock" pattern used by process steps.
type Guard struct {
	m        *Manager
	owner    Owner
	acquired []string
}

// NewGuard returns a guard for the owner.
func NewGuard(m *Manager, owner Owner) *Guard {
	return &Guard{m: m, owner: owner}
}

// Lock acquires the resource (blocking up to timeout) and remembers it for
// ReleaseAll.
func (g *Guard) Lock(resource string, mode Mode, ttl, timeout time.Duration) error {
	if err := g.m.Acquire(g.owner, resource, mode, ttl, timeout); err != nil {
		return err
	}
	g.acquired = append(g.acquired, resource)
	return nil
}

// Unlock releases every resource the guard acquired, in reverse order.
func (g *Guard) Unlock() {
	for i := len(g.acquired) - 1; i >= 0; i-- {
		_ = g.m.Release(g.owner, g.acquired[i])
	}
	g.acquired = nil
}
