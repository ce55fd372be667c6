// Package aggregate maintains secondary data — sums, counts and secondary
// indexes — over one serialization unit's entity states, deferred
// (principle 2.3: "I'll do it eventually"). The unit's commit sink hands the
// maintainer every committed append and obsolescence mark (Capture), which
// only notes the entity as pending; CatchUp folds each pending entity's
// current state in. Catching up after every write is the synchronous
// baseline.
//
// The fold is by state: an entity's contribution is replaced by the one its
// current state implies, and an entity with no live state contributes
// nothing. A definition starts by marking every existing entity of its type
// pending, and Reseed does the same after a bulk load the sink never saw.
// So once CatchUp returns with no write in flight, every aggregate equals
// the same fold over the unit's live states, whatever came between:
// withdrawn promises, compaction, flushes, a restart or a promotion.
//
// Deferred maintenance means secondary data "will not always be consistent
// with the primary data"; Staleness counts the records committed since
// their entities were last folded, which experiment E1 and the
// user-experience discussion in section 3.2 are about.
package aggregate

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/entity"
	"repro/internal/lsdb"
	"repro/internal/storage"
)

// Common errors.
var (
	// ErrUnknownDefinition is returned when reading an aggregate or index
	// that was never defined.
	ErrUnknownDefinition = errors.New("aggregate: unknown definition")
)

type kind uint8

const (
	sumKind kind = iota
	countKind
	indexKind
)

var kindNames = [...]string{"sum", "count", "index"}

// def is one sum, count or index over the entities of one type. A sum
// totals field per groupBy value; a count totals 1 per live entity; an
// index groups entity ids by the value of field.
type def struct {
	kind       kind
	entityType string
	field      string
	groupBy    string

	contrib map[string]contribution    // entity id -> what it adds now
	totals  map[string]float64         // sum, count: group -> total
	ids     map[string]map[string]bool // index: value -> entity ids
}

// contribution is what one entity adds to a definition: value to the
// group's total, or its id to the group's index entry.
type contribution struct {
	group string
	value float64
}

// fold replaces id's contribution with the one st implies (none when st is
// nil or deleted).
func (d *def) fold(id string, st *entity.State) {
	if old, ok := d.contrib[id]; ok {
		delete(d.contrib, id)
		if d.kind == indexKind {
			delete(d.ids[old.group], id)
		} else {
			d.totals[old.group] -= old.value
		}
	}
	if st == nil || st.Deleted {
		return
	}
	c := contribution{group: st.StringField(d.groupBy), value: 1}
	switch d.kind {
	case sumKind:
		c.value = st.Float(d.field)
	case indexKind:
		c.group = fmt.Sprintf("%v", st.Fields[d.field])
		if d.ids[c.group] == nil {
			d.ids[c.group] = map[string]bool{}
		}
		d.ids[c.group][id] = true
	}
	if d.kind != indexKind {
		d.totals[c.group] += c.value
	}
	d.contrib[id] = c
}

type defKey struct {
	kind kind
	name string
}

// Maintainer keeps one serialization unit's secondary data. All methods are
// safe for concurrent use. Capture runs under a shard lock and takes the
// maintainer's lock; no method takes a shard lock while holding it.
type Maintainer struct {
	db *lsdb.DB

	// defined is set by the first definition; until then Capture is one
	// atomic load.
	defined atomic.Bool
	// catchMu runs one CatchUp at a time, so no fold of an older state
	// lands after a newer one.
	catchMu sync.Mutex

	mu      sync.Mutex
	defs    map[defKey]*def
	types   map[string]bool         // entity types some definition covers
	pending map[entity.Key]struct{} // entities written since last folded
	stale   int                     // records behind pending
}

// NewMaintainer creates a maintainer for db. The caller routes db's commit
// sink through Capture.
func NewMaintainer(db *lsdb.DB) *Maintainer {
	return &Maintainer{
		db:      db,
		defs:    map[defKey]*def{},
		types:   map[string]bool{},
		pending: map[entity.Key]struct{}{},
	}
}

// DefineSum declares a sum aggregate over field of entityType, grouped by
// groupBy (empty for a single global total).
func (m *Maintainer) DefineSum(name, entityType, field, groupBy string) {
	m.define(name, &def{kind: sumKind, entityType: entityType, field: field, groupBy: groupBy})
}

// DefineCount declares a count of live entities of entityType grouped by
// groupBy (empty for a global count).
func (m *Maintainer) DefineCount(name, entityType, groupBy string) {
	m.define(name, &def{kind: countKind, entityType: entityType, groupBy: groupBy})
}

// DefineIndex declares a secondary index over field of entityType.
func (m *Maintainer) DefineIndex(name, entityType, field string) {
	m.define(name, &def{kind: indexKind, entityType: entityType, field: field})
}

// define installs d, empty, and marks every existing entity of its type
// pending. Capture is on before the keys are listed, so a write racing the
// definition is listed, captured, or both.
func (m *Maintainer) define(name string, d *def) {
	d.contrib = map[string]contribution{}
	d.totals = map[string]float64{}
	d.ids = map[string]map[string]bool{}
	m.mu.Lock()
	m.defs[defKey{d.kind, name}] = d
	m.types[d.entityType] = true
	m.mu.Unlock()
	m.defined.Store(true)
	m.seed(d.entityType)
}

// Reseed marks every existing entity of a defined type pending: for states
// installed without passing the commit sink (a backup import).
func (m *Maintainer) Reseed() {
	m.mu.Lock()
	types := make([]string, 0, len(m.types))
	for t := range m.types {
		types = append(types, t)
	}
	m.mu.Unlock()
	for _, t := range types {
		m.seed(t)
	}
}

// seed marks every existing entity of entityType pending. Listing the keys
// takes shard locks, so the maintainer's lock is not held for it.
func (m *Maintainer) seed(entityType string) {
	keys := m.db.KeysOfType(entityType)
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, key := range keys {
		m.pending[key] = struct{}{}
	}
	m.stale += len(keys)
}

// Capture is the maintainer's part of the unit's commit sink: it notes the
// entities of committed appends and obsolescence marks as pending. A
// compaction horizon changes no state and is ignored. It runs under the
// committing shard's lock and never blocks on anything but the
// maintainer's own lock.
func (m *Maintainer) Capture(records []lsdb.Record) {
	if !m.defined.Load() {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range records {
		rec := &records[i]
		if rec.Kind == storage.KindCompact || !m.types[rec.Key.Type] {
			continue
		}
		m.pending[rec.Key] = struct{}{}
		m.stale++
	}
}

// CatchUp folds the current state of every pending entity into the
// secondary data and returns how many records it caught up past. An entity
// whose state cannot be read (a failed cold read) stays pending.
func (m *Maintainer) CatchUp() int {
	m.catchMu.Lock()
	defer m.catchMu.Unlock()
	m.mu.Lock()
	keys, taken := m.pending, m.stale
	if len(keys) == 0 {
		m.mu.Unlock()
		return 0
	}
	m.pending = map[entity.Key]struct{}{}
	m.mu.Unlock()
	for key := range keys {
		state, _, err := m.db.Current(key)
		if errors.Is(err, lsdb.ErrNotFound) {
			state, err = nil, nil
		}
		m.mu.Lock()
		if err != nil {
			m.pending[key] = struct{}{}
			taken--
		} else {
			for _, d := range m.defs {
				if d.entityType == key.Type {
					d.fold(key.ID, state)
				}
			}
		}
		m.mu.Unlock()
	}
	m.mu.Lock()
	m.stale -= taken
	m.mu.Unlock()
	return taken
}

// read runs fn on the named definition under the maintainer's lock.
func (m *Maintainer) read(k kind, name string, fn func(*def)) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.defs[defKey{k, name}]
	if !ok {
		return fmt.Errorf("%w: %s %s", ErrUnknownDefinition, kindNames[k], name)
	}
	fn(d)
	return nil
}

// Sum reads a sum aggregate for a group ("" for the global group).
func (m *Maintainer) Sum(name, group string) (v float64, err error) {
	err = m.read(sumKind, name, func(d *def) { v = d.totals[group] })
	return v, err
}

// Count reads a count aggregate for a group.
func (m *Maintainer) Count(name, group string) (n int, err error) {
	err = m.read(countKind, name, func(d *def) { n = int(d.totals[group]) })
	return n, err
}

// Lookup returns the sorted entity ids whose indexed field equals value.
func (m *Maintainer) Lookup(name string, value interface{}) (ids []string, err error) {
	err = m.read(indexKind, name, func(d *def) {
		set := d.ids[fmt.Sprintf("%v", value)]
		ids = make([]string, 0, len(set))
		for id := range set {
			ids = append(ids, id)
		}
	})
	sort.Strings(ids)
	return ids, err
}

// Staleness reports how far the secondary data lags the primary: the
// number of records committed since their entities were last folded.
func (m *Maintainer) Staleness() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stale
}
