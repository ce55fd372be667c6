// Package migrate implements dynamic schema migration with continuous
// availability (section 3.1): "a timelessly sustainable application
// environment must provide both dynamic schema migration and dynamic
// application migration capabilities, with continuous availability. The
// infrastructure environment must proscribe admissible changes to schemas and
// applications; not all changes will be supportable, and only supportable
// changes can be permitted."
//
// A migration declares the schema delta and an optional backfill transform.
// The registry checks admissibility; Backfill applies the transform online:
// in batches, concurrently with live traffic, one entity per transaction.
package migrate

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/entity"
	"repro/internal/txn"
)

// Common errors.
var (
	// ErrInadmissible is returned when a migration would break deployed
	// applications (e.g. removing or retyping a field in place).
	ErrInadmissible = errors.New("migrate: inadmissible schema change")
	// ErrUnknownType is returned when migrating a type that is not
	// registered.
	ErrUnknownType = errors.New("migrate: unknown entity type")
	// ErrNoSuchVersion is returned when asking for an unregistered version.
	ErrNoSuchVersion = errors.New("migrate: no such schema version")
)

// Migration describes one schema change for an entity type.
type Migration struct {
	Type string
	// AddFields lists new root fields (additive changes are admissible).
	AddFields []entity.Field
	// AddChildren lists new child collections.
	AddChildren []entity.ChildCollection
	// RemoveFields lists fields to drop. Removing fields is inadmissible
	// unless ForceRemove is set (a deliberate, reviewed decision).
	RemoveFields []string
	ForceRemove  bool
	// Backfill computes operations to apply to each existing entity so it
	// satisfies the new schema (e.g. populate the new field from old ones).
	// It may return nil for entities that need no change. The state passed
	// in is frozen and shared zero-copy with the store's cache: read it,
	// derive ops from it, but never mutate it.
	Backfill func(*entity.State) []entity.Op
}

// VersionedType is one registered version of an entity type.
type VersionedType struct {
	Version int
	Type    *entity.Type
}

// Registry holds the version history of every entity type.
type Registry struct {
	mu       sync.Mutex
	versions map[string][]VersionedType
}

// NewRegistry creates an empty schema registry.
func NewRegistry() *Registry {
	return &Registry{versions: map[string][]VersionedType{}}
}

// Register adds version 1 of a type.
func (r *Registry) Register(t *entity.Type) error {
	if err := t.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.versions[t.Name]) > 0 {
		return fmt.Errorf("migrate: type %s already registered; use Propose", t.Name)
	}
	r.versions[t.Name] = []VersionedType{{Version: 1, Type: t}}
	return nil
}

// Active returns the current version of a type.
func (r *Registry) Active(name string) (VersionedType, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.activeLocked(name)
}

func (r *Registry) activeLocked(name string) (VersionedType, error) {
	vs := r.versions[name]
	if len(vs) == 0 {
		return VersionedType{}, fmt.Errorf("%w: %s", ErrUnknownType, name)
	}
	return vs[len(vs)-1], nil
}

// Version returns a specific version of a type.
func (r *Registry) Version(name string, version int) (VersionedType, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, v := range r.versions[name] {
		if v.Version == version {
			return v, nil
		}
	}
	return VersionedType{}, fmt.Errorf("%w: %s v%d", ErrNoSuchVersion, name, version)
}

// History returns all versions of a type in order.
func (r *Registry) History(name string) []VersionedType {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]VersionedType(nil), r.versions[name]...)
}

// Types returns all registered type names, sorted.
func (r *Registry) Types() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.versions))
	for n := range r.versions {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// checkAdmissible validates a migration against the active version of its
// type.
func checkAdmissible(active VersionedType, m Migration) error {
	existing := map[string]entity.Field{}
	for _, f := range active.Type.Fields {
		existing[f.Name] = f
	}
	for _, f := range m.AddFields {
		if old, ok := existing[f.Name]; ok {
			if old.Type != f.Type {
				return fmt.Errorf("%w: field %s.%s changes type %s -> %s", ErrInadmissible, m.Type, f.Name, old.Type, f.Type)
			}
			continue // re-adding an identical field is a no-op
		}
		if f.Required && m.Backfill == nil {
			return fmt.Errorf("%w: new required field %s.%s needs a backfill", ErrInadmissible, m.Type, f.Name)
		}
	}
	for _, name := range m.RemoveFields {
		if _, ok := existing[name]; !ok {
			return fmt.Errorf("%w: removing unknown field %s.%s", ErrInadmissible, m.Type, name)
		}
		if !m.ForceRemove {
			return fmt.Errorf("%w: removing field %s.%s requires ForceRemove", ErrInadmissible, m.Type, name)
		}
	}
	childNames := map[string]bool{}
	for _, c := range active.Type.Children {
		childNames[c.Name] = true
	}
	for _, c := range m.AddChildren {
		if childNames[c.Name] {
			return fmt.Errorf("%w: child collection %s.%s already exists", ErrInadmissible, m.Type, c.Name)
		}
	}
	return nil
}

// Propose validates the migration and, if admissible, registers the new
// schema version and returns it; running the backfill is Backfill's job. The
// check and the append happen under one lock, so concurrent proposals are
// numbered one after another and each builds on the one before.
func (r *Registry) Propose(m Migration) (VersionedType, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	active, err := r.activeLocked(m.Type)
	if err != nil {
		return VersionedType{}, err
	}
	if err := checkAdmissible(active, m); err != nil {
		return VersionedType{}, err
	}
	next := &entity.Type{Name: m.Type}
	removed := map[string]bool{}
	for _, f := range m.RemoveFields {
		removed[f] = true
	}
	for _, f := range active.Type.Fields {
		if !removed[f.Name] {
			next.Fields = append(next.Fields, f)
		}
	}
	have := map[string]bool{}
	for _, f := range next.Fields {
		have[f.Name] = true
	}
	for _, f := range m.AddFields {
		if !have[f.Name] {
			next.Fields = append(next.Fields, f)
		}
	}
	next.Children = append(next.Children, active.Type.Children...)
	next.Children = append(next.Children, m.AddChildren...)
	if err := next.Validate(); err != nil {
		return VersionedType{}, err
	}
	vt := VersionedType{Version: active.Version + 1, Type: next}
	r.versions[m.Type] = append(r.versions[m.Type], vt)
	return vt, nil
}

// Progress reports a running or finished backfill.
type Progress struct {
	Entities  int
	Backfills int
	Skipped   int
	Errors    int
	Elapsed   time.Duration
}

// Backfill runs mig's backfill over the serialization unit mgr writes, whose
// store must already have the migrated type registered. It yields after
// every batchSize entities so live writers interleave.
func Backfill(mgr *txn.Manager, mig Migration, batchSize int) (Progress, error) {
	start := time.Now()
	db := mgr.DB()
	var progress Progress
	if mig.Backfill == nil {
		return progress, nil
	}
	if batchSize <= 0 {
		batchSize = 64
	}
	keys := db.KeysOfType(mig.Type)
	for i, key := range keys {
		progress.Entities++
		st, _, err := db.Current(key)
		if err != nil {
			progress.Errors++
			continue
		}
		ops := mig.Backfill(st)
		if len(ops) == 0 {
			progress.Skipped++
			continue
		}
		_, err = mgr.Run(nil, func(t *txn.Txn) error {
			return t.Update(key, ops...)
		})
		if err != nil {
			progress.Errors++
			continue
		}
		progress.Backfills++
		if (i+1)%batchSize == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	progress.Elapsed = time.Since(start)
	return progress, nil
}
