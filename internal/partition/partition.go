// Package partition implements serialization units and dynamic entity
// location (principle 2.5 / section 3.1): "a single organization may
// partition data by entity type and key, where partitions are managed as
// separate serialization units with separate logs. Entity location is
// determined dynamically, e.g., by key range partitioning or with a dynamic
// hash table."
//
// The package provides the dynamic hash table: consistent hashing with
// virtual nodes, whose units can be added at runtime while lookups proceed
// without a lock, so a new unit relocates only about 1/n of the keys.
// KeyShard spreads keys over the shards inside one unit with the same hash.
package partition

import (
	"errors"
	"fmt"
	"hash/fnv"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/entity"
)

// UnitID names one serialization unit (one LSDB with its own log and queues).
type UnitID string

// Common errors.
var (
	// ErrNoUnits is returned when locating a key while no units exist.
	ErrNoUnits = errors.New("partition: no serialization units")
	// ErrDuplicateUnit is returned when adding a unit that already exists.
	ErrDuplicateUnit = errors.New("partition: duplicate unit")
)

// HashLocator distributes keys over units with consistent hashing so that
// adding a unit relocates only ~1/n of the keys.
//
// The ring is published as an immutable snapshot behind an atomic pointer:
// AddUnit rebuilds it under mu and swaps it in, and Locate reads whichever
// snapshot is current without taking a lock.
type HashLocator struct {
	mu       sync.Mutex // serialises AddUnit
	replicas int
	units    []UnitID // in the order they were added; guarded by mu
	ring     atomic.Pointer[ring]
}

// ring is one published snapshot of a HashLocator: never written once stored.
type ring struct {
	points []uint32 // sorted, distinct
	owners []int    // points[i] belongs to units[owners[i]]
	units  []UnitID // in the order they were added
}

// NewHashLocator creates a consistent-hash locator with the given number of
// virtual nodes per unit (defaults to 64 when <= 0).
func NewHashLocator(virtualNodes int) *HashLocator {
	if virtualNodes <= 0 {
		virtualNodes = 64
	}
	l := &HashLocator{replicas: virtualNodes}
	l.ring.Store(&ring{})
	return l
}

func hash32(s string) uint32 {
	h := fnv.New32a()
	_, _ = h.Write([]byte(s))
	return h.Sum32()
}

// FNV-1a parameters (hash/fnv's 32-bit variant).
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// KeyHash is the one hash of an entity key that both layers place it by:
// hash32(key.String()) computed in place, FNV-1a over Type, '/' and ID, with
// no string built. A caller that hashed a key once passes the hash on
// (Index, ShardOf) instead of hashing again.
func KeyHash(key entity.Key) uint32 {
	h := uint32(fnvOffset32)
	for i := 0; i < len(key.Type); i++ {
		h = (h ^ uint32(key.Type[i])) * fnvPrime32
	}
	h = (h ^ '/') * fnvPrime32
	for i := 0; i < len(key.ID); i++ {
		h = (h ^ uint32(key.ID[i])) * fnvPrime32
	}
	return h
}

// AddUnit inserts a unit into the ring.
func (l *HashLocator) AddUnit(u UnitID) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if slices.Contains(l.units, u) {
		return fmt.Errorf("%w: %s", ErrDuplicateUnit, u)
	}
	l.units = append(l.units, u)
	l.publishLocked()
	return nil
}

// publishLocked rebuilds the ring from the units and stores it. When virtual
// nodes of two units hash to one point, the unit added later owns it.
func (l *HashLocator) publishLocked() {
	owner := make(map[uint32]int, len(l.units)*l.replicas)
	for n, u := range l.units {
		for i := 0; i < l.replicas; i++ {
			owner[hash32(fmt.Sprintf("%s#%d", u, i))] = n
		}
	}
	r := &ring{points: slices.Sorted(maps.Keys(owner)), units: slices.Clone(l.units)}
	r.owners = make([]int, len(r.points))
	for i, h := range r.points {
		r.owners[i] = owner[h]
	}
	l.ring.Store(r)
}

// Index returns the unit owning the key whose KeyHash is hash, as its
// position in the order the units were added. It takes no lock, probes no map
// and builds no string; a caller keeping its units in a slice in that order
// reaches the owner by index.
func (l *HashLocator) Index(hash uint32) (int, error) {
	return l.ring.Load().index(hash)
}

func (r *ring) index(hash uint32) (int, error) {
	if len(r.points) == 0 {
		return 0, ErrNoUnits
	}
	i, _ := slices.BinarySearch(r.points, hash)
	if i == len(r.points) {
		i = 0
	}
	return r.owners[i], nil
}

// ShardOf maps the key whose KeyHash is hash to a stable shard index in
// [0, n). It is the intra-unit analogue of Index: where a HashLocator spreads
// entities over serialization units, ShardOf spreads them over the
// lock-striped segments inside one unit's log store, so both layers place a
// key by one hash, computed once. n <= 1 always yields shard 0. A power of
// two n, the usual shard count, takes a mask instead of a division: the same
// index, so placement does not depend on which is used.
func ShardOf(hash uint32, n int) int {
	if n <= 1 {
		return 0
	}
	if n&(n-1) == 0 {
		return int(hash & uint32(n-1))
	}
	return int(hash % uint32(n))
}
