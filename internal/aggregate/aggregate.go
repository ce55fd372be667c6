// Package aggregate maintains secondary data — aggregates, materialized
// views and secondary indexes — from the primary log, deferred (principle
// 2.3: "I'll do it eventually"): a maintainer folds committed records in when
// CatchUp or its Run loop gets to them. Catching up after every write is the
// synchronous baseline.
//
// Deferred maintenance means secondary data "will not always be consistent
// with the primary data"; the package therefore also measures staleness (how
// far the maintainer lags the head of the log), which experiment E1 and the
// user-experience discussion in section 3.2 are about.
package aggregate

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/entity"
	"repro/internal/lsdb"
)

// Common errors.
var (
	// ErrUnknownDefinition is returned when reading an aggregate, view or
	// index that was never defined.
	ErrUnknownDefinition = errors.New("aggregate: unknown definition")
)

// sumDef defines a sum aggregate of one numeric field, grouped by another
// field (empty GroupBy aggregates globally).
type sumDef struct {
	entityType string
	field      string
	groupBy    string
}

// countDef counts live entities of a type grouped by a field.
type countDef struct {
	entityType string
	groupBy    string
}

// indexDef maps a field value to the set of entity ids having it.
type indexDef struct {
	entityType string
	field      string
}

// viewDef projects entity state into a materialized row.
type viewDef struct {
	entityType string
	project    func(*entity.State) entity.Fields
}

// Maintainer tails one serialization unit's log and keeps the defined
// secondary data up to date. All methods are safe for concurrent use.
type Maintainer struct {
	db *lsdb.DB

	mu        sync.Mutex
	processed uint64 // highest LSN folded into secondary data
	sums      map[string]sumDef
	counts    map[string]countDef
	indexes   map[string]indexDef
	views     map[string]viewDef

	sumValues   map[string]map[string]float64 // def -> group -> total
	countValues map[string]map[string]int
	indexValues map[string]map[string]map[string]bool // def -> value -> ids
	viewRows    map[string]map[string]entity.Fields   // def -> entity id -> row
	// lastSeen caches the last observed per-entity field values so that
	// register (Set) writes contribute their delta correctly.
	lastSeen map[string]map[string]float64 // sum def -> entity id -> value
	lastGrp  map[string]map[string]string  // def -> entity id -> group

	updates  uint64
	lagTotal time.Duration
	lagCount uint64
}

// NewMaintainer creates a maintainer for db.
func NewMaintainer(db *lsdb.DB) *Maintainer {
	return &Maintainer{
		db:          db,
		sums:        map[string]sumDef{},
		counts:      map[string]countDef{},
		indexes:     map[string]indexDef{},
		views:       map[string]viewDef{},
		sumValues:   map[string]map[string]float64{},
		countValues: map[string]map[string]int{},
		indexValues: map[string]map[string]map[string]bool{},
		viewRows:    map[string]map[string]entity.Fields{},
		lastSeen:    map[string]map[string]float64{},
		lastGrp:     map[string]map[string]string{},
	}
}

// DefineSum declares a sum aggregate over field of entityType, grouped by
// groupBy (empty for a single global total).
func (m *Maintainer) DefineSum(name, entityType, field, groupBy string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sums[name] = sumDef{entityType: entityType, field: field, groupBy: groupBy}
	m.sumValues[name] = map[string]float64{}
	m.lastSeen[name] = map[string]float64{}
	m.lastGrp[name] = map[string]string{}
}

// DefineCount declares a count of live entities of entityType grouped by
// groupBy (empty for a global count).
func (m *Maintainer) DefineCount(name, entityType, groupBy string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.counts[name] = countDef{entityType: entityType, groupBy: groupBy}
	m.countValues[name] = map[string]int{}
	m.lastGrp["count:"+name] = map[string]string{}
}

// DefineIndex declares a secondary index over field of entityType.
func (m *Maintainer) DefineIndex(name, entityType, field string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.indexes[name] = indexDef{entityType: entityType, field: field}
	m.indexValues[name] = map[string]map[string]bool{}
	m.lastGrp["index:"+name] = map[string]string{}
}

// DefineView declares a materialized view projecting each entity of
// entityType through project.
func (m *Maintainer) DefineView(name, entityType string, project func(*entity.State) entity.Fields) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.views[name] = viewDef{entityType: entityType, project: project}
	m.viewRows[name] = map[string]entity.Fields{}
}

// CatchUp folds every unprocessed log record into the secondary data and
// returns how many records the maintainer caught up past. Run calls it
// from a background loop; the synchronous baseline calls it after each
// primary write.
//
// All secondary data is derived from entity state, so within one batch only
// the latest record per entity needs a state read — every earlier record of
// the same entity is already folded into that state. Records arrive in LSN
// order and the per-entity maximum includes the batch's global maximum, so
// the processed watermark still reaches the head of the batch.
func (m *Maintainer) CatchUp() int {
	m.mu.Lock()
	from := m.processed
	m.mu.Unlock()
	records := m.db.RecordsAfter(from)
	if len(records) == 0 {
		return 0
	}
	latest := make(map[entity.Key]int, len(records))
	for i, rec := range records {
		latest[rec.Key] = i
	}
	for i, rec := range records {
		if latest[rec.Key] != i {
			continue
		}
		m.applyRecord(rec)
	}
	return len(records)
}

// Run tails the log every interval until stop is closed.
func (m *Maintainer) Run(interval time.Duration, stop <-chan struct{}) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			m.CatchUp()
			return
		case <-ticker.C:
			m.CatchUp()
		}
	}
}

// applyRecord folds one record into every matching definition.
func (m *Maintainer) applyRecord(rec lsdb.Record) {
	// Obsolete records contribute nothing; their withdrawal is reflected the
	// next time the entity's state is read (full refresh below). The read is
	// zero-copy: Current hands out the frozen cached state, and the
	// maintainer only ever reads from it.
	state, _, err := m.db.Current(rec.Key)
	if err != nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if rec.LSN <= m.processed {
		return
	}
	m.processed = rec.LSN
	m.updates++

	for name, def := range m.sums {
		if def.entityType != rec.Key.Type {
			continue
		}
		group := ""
		if def.groupBy != "" {
			group = state.StringField(def.groupBy)
		}
		cur := state.Float(def.field)
		if state.Deleted {
			cur = 0
		}
		prev := m.lastSeen[name][rec.Key.ID]
		prevGroup, hadGroup := m.lastGrp[name][rec.Key.ID]
		if hadGroup && prevGroup != group {
			// The entity moved between groups: remove it from the old one.
			m.sumValues[name][prevGroup] -= prev
			prev = 0
		}
		m.sumValues[name][group] += cur - prev
		m.lastSeen[name][rec.Key.ID] = cur
		m.lastGrp[name][rec.Key.ID] = group
	}

	for name, def := range m.counts {
		if def.entityType != rec.Key.Type {
			continue
		}
		group := ""
		if def.groupBy != "" {
			group = state.StringField(def.groupBy)
		}
		key := "count:" + name
		prevGroup, counted := m.lastGrp[key][rec.Key.ID]
		if state.Deleted {
			if counted {
				m.countValues[name][prevGroup]--
				delete(m.lastGrp[key], rec.Key.ID)
			}
			continue
		}
		if counted && prevGroup != group {
			m.countValues[name][prevGroup]--
			counted = false
		}
		if !counted {
			m.countValues[name][group]++
			m.lastGrp[key][rec.Key.ID] = group
		}
	}

	for name, def := range m.indexes {
		if def.entityType != rec.Key.Type {
			continue
		}
		key := "index:" + name
		value := fmt.Sprintf("%v", state.Fields[def.field])
		prev, had := m.lastGrp[key][rec.Key.ID]
		if had && prev != value {
			if set := m.indexValues[name][prev]; set != nil {
				delete(set, rec.Key.ID)
			}
		}
		if state.Deleted {
			if set := m.indexValues[name][value]; set != nil {
				delete(set, rec.Key.ID)
			}
			delete(m.lastGrp[key], rec.Key.ID)
			continue
		}
		if m.indexValues[name][value] == nil {
			m.indexValues[name][value] = map[string]bool{}
		}
		m.indexValues[name][value][rec.Key.ID] = true
		m.lastGrp[key][rec.Key.ID] = value
	}

	for name, def := range m.views {
		if def.entityType != rec.Key.Type {
			continue
		}
		if state.Deleted {
			delete(m.viewRows[name], rec.Key.ID)
			continue
		}
		m.viewRows[name][rec.Key.ID] = def.project(state)
	}
}

// Sum reads a sum aggregate for a group ("" for the global group).
func (m *Maintainer) Sum(name, group string) (float64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	vals, ok := m.sumValues[name]
	if !ok {
		return 0, fmt.Errorf("%w: sum %s", ErrUnknownDefinition, name)
	}
	return vals[group], nil
}

// Count reads a count aggregate for a group.
func (m *Maintainer) Count(name, group string) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	vals, ok := m.countValues[name]
	if !ok {
		return 0, fmt.Errorf("%w: count %s", ErrUnknownDefinition, name)
	}
	return vals[group], nil
}

// Lookup returns the sorted entity ids whose indexed field equals value.
func (m *Maintainer) Lookup(name string, value interface{}) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	idx, ok := m.indexValues[name]
	if !ok {
		return nil, fmt.Errorf("%w: index %s", ErrUnknownDefinition, name)
	}
	set := idx[fmt.Sprintf("%v", value)]
	out := make([]string, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Strings(out)
	return out, nil
}

// ViewRow returns the materialized row for one entity (nil, false when the
// entity is not in the view).
func (m *Maintainer) ViewRow(name, entityID string) (entity.Fields, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rows, ok := m.viewRows[name]
	if !ok {
		return nil, false, fmt.Errorf("%w: view %s", ErrUnknownDefinition, name)
	}
	row, found := rows[entityID]
	return row, found, nil
}

// ViewSize returns the number of rows in a view.
func (m *Maintainer) ViewSize(name string) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rows, ok := m.viewRows[name]
	if !ok {
		return 0, fmt.Errorf("%w: view %s", ErrUnknownDefinition, name)
	}
	return len(rows), nil
}

// Staleness reports how far the secondary data lags the primary: the number
// of unprocessed records and the LSN of the last processed record.
func (m *Maintainer) Staleness() (pendingRecords int, processedLSN uint64) {
	m.mu.Lock()
	processed := m.processed
	m.mu.Unlock()
	head := m.db.HeadLSN()
	if head < processed {
		return 0, processed
	}
	return int(head - processed), processed
}

// Updates returns how many state applications have folded records into
// secondary data. CatchUp coalesces each entity's records within a batch
// into one application, so this can be lower than the number of records
// caught up past (CatchUp's return value).
func (m *Maintainer) Updates() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.updates
}
