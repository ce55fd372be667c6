// Package partition implements serialization units and dynamic entity
// location (principle 2.5 / section 3.1): "a single organization may
// partition data by entity type and key, where partitions are managed as
// separate serialization units with separate logs. Entity location is
// determined dynamically, e.g., by key range partitioning or with a dynamic
// hash table."
//
// The package provides both strategies — consistent hashing with virtual
// nodes and per-type key ranges — behind a common Locator interface, plus a
// Directory that supports adding and removing units at runtime and reports
// how many entities such a change relocates.
package partition

import (
	"errors"
	"fmt"
	"hash/fnv"
	"maps"
	"sort"
	"strings"
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
	// ErrUnknownUnit is returned when removing or addressing a unit that is
	// not part of the directory.
	ErrUnknownUnit = errors.New("partition: unknown unit")
	// ErrDuplicateUnit is returned when adding a unit that already exists.
	ErrDuplicateUnit = errors.New("partition: duplicate unit")
)

// Locator maps an entity key to the serialization unit responsible for it.
type Locator interface {
	// Locate returns the unit owning the key.
	Locate(key entity.Key) (UnitID, error)
	// Units lists all units, sorted.
	Units() []UnitID
}

// HashLocator distributes keys over units with consistent hashing so that
// adding or removing a unit relocates only ~1/n of the keys.
type HashLocator struct {
	mu       sync.RWMutex
	replicas int
	ring     []uint32
	owner    map[uint32]UnitID
	units    map[UnitID]bool
}

// NewHashLocator creates a consistent-hash locator with the given number of
// virtual nodes per unit (defaults to 64 when <= 0).
func NewHashLocator(virtualNodes int) *HashLocator {
	if virtualNodes <= 0 {
		virtualNodes = 64
	}
	return &HashLocator{replicas: virtualNodes, owner: map[uint32]UnitID{}, units: map[UnitID]bool{}}
}

func hash32(s string) uint32 {
	h := fnv.New32a()
	_, _ = h.Write([]byte(s))
	return h.Sum32()
}

// AddUnit inserts a unit into the ring.
func (l *HashLocator) AddUnit(u UnitID) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.units[u] {
		return fmt.Errorf("%w: %s", ErrDuplicateUnit, u)
	}
	l.units[u] = true
	for i := 0; i < l.replicas; i++ {
		h := hash32(fmt.Sprintf("%s#%d", u, i))
		// In the (unlikely) event of a hash collision the later unit wins the
		// point; correctness only needs a deterministic owner.
		l.owner[h] = u
		l.ring = append(l.ring, h)
	}
	sort.Slice(l.ring, func(i, j int) bool { return l.ring[i] < l.ring[j] })
	return nil
}

// RemoveUnit removes a unit from the ring.
func (l *HashLocator) RemoveUnit(u UnitID) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.units[u] {
		return fmt.Errorf("%w: %s", ErrUnknownUnit, u)
	}
	delete(l.units, u)
	kept := l.ring[:0]
	for _, h := range l.ring {
		if l.owner[h] == u {
			delete(l.owner, h)
			continue
		}
		kept = append(kept, h)
	}
	l.ring = kept
	return nil
}

// Locate returns the unit owning the key.
func (l *HashLocator) Locate(key entity.Key) (UnitID, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if len(l.ring) == 0 {
		return "", ErrNoUnits
	}
	h := hash32(key.String())
	i := sort.Search(len(l.ring), func(i int) bool { return l.ring[i] >= h })
	if i == len(l.ring) {
		i = 0
	}
	return l.owner[l.ring[i]], nil
}

// Units lists all units, sorted.
func (l *HashLocator) Units() []UnitID {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]UnitID, 0, len(l.units))
	for u := range l.units {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// KeyShard maps an entity key to a stable shard index in [0, n). It is the
// intra-unit analogue of Locate: where a Locator spreads entities over
// serialization units, KeyShard spreads them over the lock-striped segments
// inside one unit's log store, so both layers agree on one hash function.
// n <= 1 always yields shard 0.
func KeyShard(key entity.Key, n int) int {
	if n <= 1 {
		return 0
	}
	return int(hash32(key.String()) % uint32(n))
}

// Range is one key range [From, To) assigned to a unit. An empty To means
// "to the end of the keyspace".
type Range struct {
	Type string
	From string
	To   string
	Unit UnitID
}

// contains reports whether the range covers the id.
func (r Range) contains(id string) bool {
	if id < r.From {
		return false
	}
	return r.To == "" || id < r.To
}

// RangeLocator assigns keys to units by per-type key ranges, the second
// strategy section 3.1 names. Ranges can be split and merged at runtime.
type RangeLocator struct {
	mu     sync.RWMutex
	ranges map[string][]Range // type -> sorted ranges
	// fallback owns keys of types with no declared ranges (empty disables).
	fallback UnitID
}

// NewRangeLocator creates an empty range locator. If fallback is non-empty,
// keys of undeclared types map to it instead of failing.
func NewRangeLocator(fallback UnitID) *RangeLocator {
	return &RangeLocator{ranges: map[string][]Range{}, fallback: fallback}
}

// AddRange declares a range. Ranges of one type must not overlap; the caller
// is expected to partition the keyspace (validated here).
func (l *RangeLocator) AddRange(r Range) error {
	if r.Unit == "" {
		return errors.New("partition: range needs a unit")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, existing := range l.ranges[r.Type] {
		if rangesOverlap(existing, r) {
			return fmt.Errorf("partition: range [%s,%s) overlaps [%s,%s) for type %s",
				r.From, r.To, existing.From, existing.To, r.Type)
		}
	}
	l.ranges[r.Type] = append(l.ranges[r.Type], r)
	sort.Slice(l.ranges[r.Type], func(i, j int) bool { return l.ranges[r.Type][i].From < l.ranges[r.Type][j].From })
	return nil
}

func rangesOverlap(a, b Range) bool {
	aEndsBeforeB := a.To != "" && a.To <= b.From
	bEndsBeforeA := b.To != "" && b.To <= a.From
	return !(aEndsBeforeB || bEndsBeforeA)
}

// SplitRange splits the range containing splitAt for the type so that keys
// >= splitAt move to newUnit.
func (l *RangeLocator) SplitRange(typeName, splitAt string, newUnit UnitID) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	ranges := l.ranges[typeName]
	for i, r := range ranges {
		if r.contains(splitAt) {
			upper := Range{Type: typeName, From: splitAt, To: r.To, Unit: newUnit}
			ranges[i].To = splitAt
			l.ranges[typeName] = append(ranges, upper)
			sort.Slice(l.ranges[typeName], func(a, b int) bool { return l.ranges[typeName][a].From < l.ranges[typeName][b].From })
			return nil
		}
	}
	return fmt.Errorf("partition: no range of %s contains %q", typeName, splitAt)
}

// Locate returns the unit owning the key.
func (l *RangeLocator) Locate(key entity.Key) (UnitID, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	for _, r := range l.ranges[key.Type] {
		if r.contains(key.ID) {
			return r.Unit, nil
		}
	}
	if l.fallback != "" {
		return l.fallback, nil
	}
	return "", fmt.Errorf("%w: no range covers %s", ErrNoUnits, key)
}

// Units lists all units referenced by any range (plus the fallback), sorted.
func (l *RangeLocator) Units() []UnitID {
	l.mu.RLock()
	defer l.mu.RUnlock()
	seen := map[UnitID]bool{}
	if l.fallback != "" {
		seen[l.fallback] = true
	}
	for _, ranges := range l.ranges {
		for _, r := range ranges {
			seen[r.Unit] = true
		}
	}
	out := make([]UnitID, 0, len(seen))
	for u := range seen {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Ranges returns a copy of the declared ranges for a type, sorted by From.
func (l *RangeLocator) Ranges(typeName string) []Range {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return append([]Range(nil), l.ranges[typeName]...)
}

// Directory wraps a Locator with explicit overrides (pinned entities) and
// relocation accounting, giving the kernel one place to ask "which
// serialization unit owns this entity right now?".
type Directory struct {
	locator Locator
	// overrides is the published pin table: copied on every Pin and Unpin,
	// never written once stored, nil while nothing is pinned — so Locate takes
	// no lock, and with no pins probes no map.
	overrides atomic.Pointer[map[entity.Key]UnitID]
	mu        sync.Mutex // serialises Pin and Unpin
	moves     atomic.Uint64
}

// NewDirectory wraps a locator.
func NewDirectory(l Locator) *Directory {
	return &Directory{locator: l}
}

// Locate returns the owning unit, honouring pins first.
func (d *Directory) Locate(key entity.Key) (UnitID, error) {
	if pins := d.overrides.Load(); pins != nil {
		if u, ok := (*pins)[key]; ok {
			return u, nil
		}
	}
	return d.locator.Locate(key)
}

// Pin forces a key onto a unit (dynamic relocation of a hot entity).
func (d *Directory) Pin(key entity.Key, unit UnitID) {
	d.editPins(func(pins map[entity.Key]UnitID) {
		if cur, ok := pins[key]; !ok || cur != unit {
			d.moves.Add(1)
		}
		pins[key] = unit
	})
}

// Unpin removes a pin.
func (d *Directory) Unpin(key entity.Key) {
	d.editPins(func(pins map[entity.Key]UnitID) { delete(pins, key) })
}

// editPins publishes the pin table as edit leaves a copy of the current one.
func (d *Directory) editPins(edit func(pins map[entity.Key]UnitID)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	next := map[entity.Key]UnitID{}
	if cur := d.overrides.Load(); cur != nil {
		next = maps.Clone(*cur)
	}
	edit(next)
	if len(next) == 0 {
		d.overrides.Store(nil)
		return
	}
	d.overrides.Store(&next)
}

// Moves returns how many explicit relocations have been recorded.
func (d *Directory) Moves() uint64 { return d.moves.Load() }

// Units delegates to the underlying locator.
func (d *Directory) Units() []UnitID { return d.locator.Units() }

// SameUnit reports whether two keys are currently co-located, which is what
// decides whether a transaction touching both would be local or distributed
// (principle 2.5).
func (d *Directory) SameUnit(a, b entity.Key) (bool, error) {
	ua, err := d.Locate(a)
	if err != nil {
		return false, err
	}
	ub, err := d.Locate(b)
	if err != nil {
		return false, err
	}
	return ua == ub, nil
}

// Distribution counts how many of the given keys land on each unit; the
// benchmark harness uses it to verify balanced placement.
func Distribution(l Locator, keys []entity.Key) (map[UnitID]int, error) {
	out := map[UnitID]int{}
	for _, k := range keys {
		u, err := l.Locate(k)
		if err != nil {
			return nil, err
		}
		out[u]++
	}
	return out, nil
}

// RelocatedFraction measures which fraction of keys change owner between two
// locators (e.g. before and after adding a unit).
func RelocatedFraction(before, after Locator, keys []entity.Key) (float64, error) {
	if len(keys) == 0 {
		return 0, nil
	}
	moved := 0
	for _, k := range keys {
		b, err := before.Locate(k)
		if err != nil {
			return 0, err
		}
		a, err := after.Locate(k)
		if err != nil {
			return 0, err
		}
		if a != b {
			moved++
		}
	}
	return float64(moved) / float64(len(keys)), nil
}

// FormatDistribution renders a distribution map deterministically for logs.
func FormatDistribution(dist map[UnitID]int) string {
	units := make([]string, 0, len(dist))
	for u := range dist {
		units = append(units, string(u))
	}
	sort.Strings(units)
	parts := make([]string, 0, len(units))
	for _, u := range units {
		parts = append(parts, fmt.Sprintf("%s=%d", u, dist[UnitID(u)]))
	}
	return strings.Join(parts, " ")
}
