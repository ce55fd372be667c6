// Package entity implements the business-object model the paper's principles
// are expressed against: hierarchical entities (an order and its line items),
// insert-only versioning (principle 2.7 "I remember it well"), operation
// descriptors that record what a transaction does rather than only its
// consequences (principle 2.8 "Beware the consequences"), tentative versions
// (principle 2.9 "I think I can"), and merge machinery for reconciling
// concurrent versions produced by solipsistic or subjective transactions
// (principle 2.10).
package entity

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"sort"
	"strings"

	"repro/internal/clock"
)

// Common errors returned by the entity layer.
var (
	// ErrUnknownField is returned when an operation touches a field the
	// schema does not declare.
	ErrUnknownField = errors.New("entity: unknown field")
	// ErrTypeMismatch is returned when a value does not match the declared
	// field type.
	ErrTypeMismatch = errors.New("entity: type mismatch")
	// ErrUnknownCollection is returned for child operations against an
	// undeclared child collection.
	ErrUnknownCollection = errors.New("entity: unknown child collection")
	// ErrMissingRequired is returned in strict mode when a required field is
	// absent.
	ErrMissingRequired = errors.New("entity: missing required field")
	// ErrDeleted is returned when operating on a tombstoned entity.
	ErrDeleted = errors.New("entity: entity is deleted")
	// ErrNoSuchChild is returned when an operation references a child id that
	// does not exist.
	ErrNoSuchChild = errors.New("entity: no such child")
	// ErrUnsafeValue is returned when an operation carries a value that is
	// neither a scalar nor a supported container. Such values cannot be
	// safely shared between the sealed log, the state cache and callers.
	ErrUnsafeValue = errors.New("entity: non-scalar operation value")
)

// FieldType enumerates the scalar types an entity field may hold.
type FieldType int

// Supported field types.
const (
	String FieldType = iota
	Int
	Float
	Bool
	Reference // a foreign key: the key string of another entity
)

// String returns the type name.
func (t FieldType) String() string {
	switch t {
	case String:
		return "string"
	case Int:
		return "int"
	case Float:
		return "float"
	case Bool:
		return "bool"
	case Reference:
		return "reference"
	default:
		return fmt.Sprintf("FieldType(%d)", int(t))
	}
}

// Field declares one attribute of an entity or of a child row.
type Field struct {
	Name     string
	Type     FieldType
	Required bool
	// RefType names the entity type a Reference field points at. Referential
	// integrity against it is checked by the kernel in strict mode and turned
	// into a managed exception otherwise (principle 2.2).
	RefType string
}

// ChildCollection declares a hierarchical child set, e.g. the line items of
// an order. Children live inside the parent entity and are always updated in
// the same (single-entity) transaction as the parent (principle 2.5).
type ChildCollection struct {
	Name   string
	Fields []Field
}

// Type declares an entity type: its root fields and child collections.
type Type struct {
	Name     string
	Fields   []Field
	Children []ChildCollection
}

// Validate checks the type declaration itself for internal consistency.
func (t *Type) Validate() error {
	if t.Name == "" {
		return errors.New("entity: type name must not be empty")
	}
	seen := map[string]bool{}
	for _, f := range t.Fields {
		if f.Name == "" {
			return fmt.Errorf("entity: type %s has a field with an empty name", t.Name)
		}
		if seen[f.Name] {
			return fmt.Errorf("entity: type %s declares field %s twice", t.Name, f.Name)
		}
		seen[f.Name] = true
		if f.Type == Reference && f.RefType == "" {
			return fmt.Errorf("entity: reference field %s.%s needs RefType", t.Name, f.Name)
		}
	}
	childSeen := map[string]bool{}
	for _, c := range t.Children {
		if c.Name == "" {
			return fmt.Errorf("entity: type %s has a child collection with an empty name", t.Name)
		}
		if childSeen[c.Name] {
			return fmt.Errorf("entity: type %s declares child collection %s twice", t.Name, c.Name)
		}
		childSeen[c.Name] = true
		cf := map[string]bool{}
		for _, f := range c.Fields {
			if cf[f.Name] {
				return fmt.Errorf("entity: child %s.%s declares field %s twice", t.Name, c.Name, f.Name)
			}
			cf[f.Name] = true
		}
	}
	return nil
}

// field looks up a root field declaration.
func (t *Type) field(name string) (Field, bool) {
	for _, f := range t.Fields {
		if f.Name == name {
			return f, true
		}
	}
	return Field{}, false
}

// child looks up a child collection declaration.
func (t *Type) child(name string) (ChildCollection, bool) {
	for _, c := range t.Children {
		if c.Name == name {
			return c, true
		}
	}
	return ChildCollection{}, false
}

func (c ChildCollection) field(name string) (Field, bool) {
	for _, f := range c.Fields {
		if f.Name == name {
			return f, true
		}
	}
	return Field{}, false
}

// Key identifies an entity instance: its type name plus an application key.
type Key struct {
	Type string
	ID   string
}

// String renders the key as "Type/ID".
func (k Key) String() string { return k.Type + "/" + k.ID }

// ParseKey parses the output of Key.String.
func ParseKey(s string) (Key, error) {
	i := strings.IndexByte(s, '/')
	if i <= 0 || i == len(s)-1 {
		return Key{}, fmt.Errorf("entity: malformed key %q", s)
	}
	return Key{Type: s[:i], ID: s[i+1:]}, nil
}

// Fields is the attribute map of an entity root or child row.
type Fields map[string]interface{}

// Clone copies the field map. Values are normally scalars (a shallow value
// copy); the supported container types (nested Fields, map[string]interface{},
// []interface{}) are copied recursively so a clone never aliases mutable data
// with its source. Unsupported non-scalar kinds are rejected before they can
// enter a state (see SanitizeOps), so passing them through here is safe.
func (f Fields) Clone() Fields {
	out := make(Fields, len(f))
	for k, v := range f {
		out[k] = cloneValue(v)
	}
	return out
}

// cloneValue deep-copies container values and passes scalars through.
func cloneValue(v interface{}) interface{} {
	switch x := v.(type) {
	case Fields:
		return x.Clone()
	case map[string]interface{}:
		out := make(map[string]interface{}, len(x))
		for k, e := range x {
			out[k] = cloneValue(e)
		}
		return out
	case []interface{}:
		out := make([]interface{}, len(x))
		for i, e := range x {
			out[i] = cloneValue(e)
		}
		return out
	default:
		return v
	}
}

// Child is one row of a child collection.
type Child struct {
	ID     string
	Fields Fields
	// Deleted marks a tombstoned child row (principle 2.7: deletes are marks,
	// not removals).
	Deleted bool
}

// Clone deep-copies the child.
func (c Child) Clone() Child {
	return Child{ID: c.ID, Fields: c.Fields.Clone(), Deleted: c.Deleted}
}

// chunkSize is the number of child rows per chunk. Copy-on-write operates at
// chunk granularity: a write to one row copies at most one chunk, so the cost
// of Apply is proportional to the chunks it touches, not the collection width.
const chunkSize = 64

// reindexAfter bounds the unindexed tail of a collection. Once this many rows
// sit beyond the frozen id index, the next insert rebuilds the index, keeping
// ChildByID an O(1) map hit plus a bounded tail scan.
const reindexAfter = 64

// chunk is a run of up to chunkSize child rows. Chunks are shared structurally
// between state versions and never mutated while shared; a mutable state
// deep-copies a chunk the first time it writes into it.
type chunk struct {
	rows []Child
}

// collection is the copy-on-write container of one child collection. Rows are
// append-only (deletes tombstone in place), so a row's position is stable for
// the lifetime of the collection and chunk boundaries never move.
type collection struct {
	chunks []*chunk
	n      int // rows visible in this version
	live   int // rows not tombstoned
	// index maps a child id to its first position, covering rows [0, indexed).
	// It is immutable once built: inserts land in the tail and a fresh index
	// is built (in the inserting version) when the tail reaches reindexAfter.
	index   map[string]int
	indexed int
	// dups counts ids that occur on more than one row (insert after delete, or
	// raw appends into undeclared collections); deletes fall back to a full
	// scan only when it is non-zero.
	dups int
	// owned marks chunks this header's owner may mutate in place. Meaningful
	// only inside a mutable state that owns the header; always stale on shared
	// headers, which are never written.
	owned []bool
}

// header returns a copy of the collection bookkeeping with all chunks shared
// and unowned.
func (c *collection) header() *collection {
	return &collection{
		chunks:  append([]*chunk(nil), c.chunks...),
		n:       c.n,
		live:    c.live,
		index:   c.index,
		indexed: c.indexed,
		dups:    c.dups,
		owned:   make([]bool, len(c.chunks)),
	}
}

// deepCopy fully materialises the collection: every chunk and row map is
// private to the copy. The frozen index is shared (it is immutable).
func (c *collection) deepCopy() *collection {
	out := c.header()
	for i := range out.chunks {
		out.copyChunk(i)
	}
	return out
}

// rowAt returns the row at a position for reading. The returned pointer must
// not be written through unless the chunk is owned (use mutRow).
func (c *collection) rowAt(pos int) *Child {
	return &c.chunks[pos/chunkSize].rows[pos%chunkSize]
}

// copyChunk replaces chunk ci with a deep copy the owner may write to. The
// copy is sized to its current rows — narrow collections stay narrow; append
// growth re-allocates amortised up to the chunkSize bound.
func (c *collection) copyChunk(ci int) {
	old := c.chunks[ci]
	ck := takeChunk(len(old.rows))
	for i, r := range old.rows {
		ck.rows[i] = r.Clone()
	}
	c.chunks[ci] = ck
	c.owned[ci] = true
}

// mutRow returns a writable pointer to the row at pos, copying its chunk
// first if it is still shared. Only call on an owned header.
func (c *collection) mutRow(pos int) *Child {
	ci := pos / chunkSize
	if !c.owned[ci] {
		c.copyChunk(ci)
	}
	return &c.chunks[ci].rows[pos%chunkSize]
}

// find returns the first position holding id (tombstoned rows included,
// matching scan order): an index hit for the indexed prefix, then a bounded
// scan of the unindexed tail.
func (c *collection) find(id string) (int, bool) {
	if c == nil {
		return 0, false
	}
	if c.index != nil {
		if pos, ok := c.index[id]; ok && pos < c.n && c.rowAt(pos).ID == id {
			return pos, true
		}
	}
	for pos := c.indexed; pos < c.n; pos++ {
		if c.rowAt(pos).ID == id {
			return pos, true
		}
	}
	return 0, false
}

// appendRow appends a child row, tracking duplicate ids and maintaining the
// index. Only call on an owned header.
func (c *collection) appendRow(ch Child) {
	if _, ok := c.find(ch.ID); ok {
		c.dups++
	}
	ci := c.n / chunkSize
	if ci == len(c.chunks) {
		// Row capacity grows with append's amortised doubling; the position
		// math (pos/chunkSize) caps every chunk at chunkSize rows, so narrow
		// collections never pay for a full-width backing array.
		c.chunks = append(c.chunks, takeChunk(0))
		c.owned = append(c.owned, true)
	} else if !c.owned[ci] {
		c.copyChunk(ci)
	}
	ck := c.chunks[ci]
	ck.rows = append(ck.rows, ch)
	c.n++
	if !ch.Deleted {
		c.live++
	}
	if c.n-c.indexed >= reindexAfter {
		c.reindex()
	}
}

// reindex builds a fresh id -> first-position map over all rows. The map is
// private to the building version until the version is frozen; shared index
// maps are never mutated.
func (c *collection) reindex() {
	idx := make(map[string]int, c.n)
	for pos := 0; pos < c.n; pos++ {
		id := c.rowAt(pos).ID
		if _, ok := idx[id]; !ok {
			idx[id] = pos
		}
	}
	c.index = idx
	c.indexed = c.n
}

// each calls fn with every row in insertion order.
func (c *collection) each(fn func(*Child)) {
	if c == nil {
		return
	}
	pos := 0
	for _, ck := range c.chunks {
		for i := range ck.rows {
			if pos >= c.n {
				return
			}
			fn(&ck.rows[i])
			pos++
		}
	}
}

// State is the materialised current value of an entity: root fields plus all
// child collections. It is what a rollup over the version log produces.
//
// States are copy-on-write values with structural sharing. A state is either
// mutable (freshly built, cloned or thawed — owned by one goroutine) or
// frozen (immutable forever, safe to share between goroutines without
// copying). The read path hands out frozen states directly; callers that
// want to modify one must Thaw it first and mutate only through Apply and
// the root Fields map/flags of the thawed copy. Child rows returned by
// ChildByID, LiveChildren and Children are read-only views into shared
// chunks — never write through them.
type State struct {
	Key    Key
	Fields Fields
	// children maps collection name to its copy-on-write container. A clone
	// shares the map itself with its source (sharedKids) until its first child
	// write copies it; the containers are shared until written.
	children   map[string]*collection
	sharedKids bool
	// Deleted marks a tombstoned entity.
	Deleted bool
	// Tentative marks state resulting from tentative operations that have not
	// been confirmed (principle 2.9); it is visible and durable but may later
	// be marked obsolete.
	Tentative bool
	// frozen is the generation flag: once set, the state (and everything
	// reachable from it) is immutable and may be shared freely.
	frozen bool
	// owned marks collections whose header this state may mutate in place.
	// nil on frozen or freshly cloned states.
	owned map[string]bool
}

// NewState returns an empty mutable state for the given key.
func NewState(key Key) *State {
	return &State{Key: key, Fields: Fields{}}
}

// Freeze marks the state immutable and returns it. A frozen state may be
// shared between goroutines and versions without copying; mutating it through
// the entity API panics. Freezing is idempotent.
func (s *State) Freeze() *State {
	if s.frozen {
		return s
	}
	s.frozen = true
	s.owned = nil
	return s
}

// Frozen reports whether the state is immutable.
func (s *State) Frozen() bool { return s.frozen }

// Reopen makes a frozen state mutable again, in place — for an owner that can
// prove nobody else was ever given the pointer (lsdb's cached rollup while it
// has not been lent). Root fields are then written where they are. Children
// stay copy-on-write, because older versions may share them: Freeze dropped
// the chunk ownership, so the first write into a collection copies its header
// and the chunk it touches, as it would on a clone.
func (s *State) Reopen() *State {
	s.frozen = false
	return s
}

// Thaw returns a state the caller may mutate: the state itself when it is
// already mutable, otherwise a structural-sharing copy (O(collections), not
// O(rows)) whose writes copy only what they touch.
func (s *State) Thaw() *State {
	if !s.frozen {
		return s
	}
	return s.Clone()
}

// Clone returns a mutable copy of the state in O(root fields): the root field
// map is copied; the collection map and the child chunks are shared and
// copied lazily, the map on the first child write and a chunk on the first
// write into it. Cloning a mutable state revokes the source's in-place write
// ownership, so later writes to either side copy-on-write instead of
// corrupting the other.
func (s *State) Clone() *State {
	shared := len(s.children) > 0
	if !s.frozen {
		// The source keeps working but now shares its collection map and its
		// chunks with the clone; its next child write re-copies. Frozen
		// sources are never written, so this stays read-only for them (and
		// therefore goroutine-safe).
		s.owned = nil
		s.sharedKids = s.sharedKids || shared
	}
	out := &State{
		Key:        s.Key,
		Fields:     s.Fields.Clone(),
		Deleted:    s.Deleted,
		Tentative:  s.Tentative,
		sharedKids: shared,
	}
	if shared {
		out.children = s.children
	}
	return out
}

// DeepClone returns a mutable copy sharing no mutable structure with the
// source: every chunk and row map is copied eagerly. It exists as the
// pre-copy-on-write baseline for experiments E15/E16 and for callers that
// need a fully detached value.
func (s *State) DeepClone() *State {
	out := &State{
		Key:       s.Key,
		Fields:    s.Fields.Clone(),
		children:  make(map[string]*collection, len(s.children)),
		Deleted:   s.Deleted,
		Tentative: s.Tentative,
		owned:     make(map[string]bool, len(s.children)),
	}
	for name, c := range s.children {
		out.children[name] = c.deepCopy()
		out.owned[name] = true
	}
	return out
}

// mutableCol returns the named collection with an owned header, creating it
// when absent and copying the shared header on first write.
func (s *State) mutableCol(name string) *collection {
	if s.frozen {
		panic("entity: write to frozen State (Thaw it first)")
	}
	c := s.children[name]
	if c != nil && s.owned[name] {
		return c
	}
	if c == nil {
		c = &collection{}
	} else {
		c = c.header()
	}
	if s.sharedKids {
		// First child write since Clone: the collection map stops being
		// shared (the containers in it still are, until written).
		s.children, s.sharedKids = maps.Clone(s.children), false
	}
	if s.children == nil {
		s.children = map[string]*collection{}
	}
	s.children[name] = c
	if s.owned == nil {
		s.owned = map[string]bool{}
	}
	s.owned[name] = true
	return c
}

// ChildByID returns the child row with the given id in the named collection
// (first match in insertion order, tombstoned rows included). The row is a
// read-only view; do not write through its Fields map.
func (s *State) ChildByID(collection, id string) (Child, bool) {
	c := s.children[collection]
	if pos, ok := c.find(id); ok {
		return *c.rowAt(pos), true
	}
	return Child{}, false
}

// LiveChildren returns the non-tombstoned rows of a collection in insertion
// order. The rows are read-only views into shared structure.
func (s *State) LiveChildren(collection string) []Child {
	c := s.children[collection]
	if c == nil || c.live == 0 {
		return nil
	}
	out := make([]Child, 0, c.live)
	c.each(func(ch *Child) {
		if !ch.Deleted {
			out = append(out, *ch)
		}
	})
	return out
}

// Children returns every row of a collection, tombstoned ones included, in
// insertion order. The rows are read-only views into shared structure.
func (s *State) Children(collection string) []Child {
	c := s.children[collection]
	if c == nil || c.n == 0 {
		return nil
	}
	out := make([]Child, 0, c.n)
	c.each(func(ch *Child) { out = append(out, *ch) })
	return out
}

// ChildCount returns the number of rows in a collection, tombstones included.
func (s *State) ChildCount(collection string) int {
	c := s.children[collection]
	if c == nil {
		return 0
	}
	return c.n
}

// Collections returns the names of the state's child collections, sorted.
func (s *State) Collections() []string {
	out := make([]string, 0, len(s.children))
	for name := range s.children {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// insertChild applies insert/upsert semantics for a declared collection: a
// live row with the same id is merged field-wise, anything else appends.
func (s *State) insertChild(collection, id string, row Fields) {
	c := s.mutableCol(collection)
	if pos, ok := c.find(id); ok && !c.rowAt(pos).Deleted {
		m := c.mutRow(pos)
		for k, v := range row {
			m.Fields[k] = v
		}
		return
	}
	if row == nil {
		row = Fields{}
	}
	c.appendRow(Child{ID: id, Fields: row})
}

// appendChild appends a row without upsert semantics (undeclared collections
// keep the raw append behaviour).
func (s *State) appendChild(collection string, ch Child) {
	s.mutableCol(collection).appendRow(ch)
}

// RestoreChild appends a raw child row — tombstone flag and all — to a
// mutable state, bypassing upsert semantics. It exists for the storage
// codec's summary decoder, which rebuilds a state row-for-row from its
// serialised form; normal writes go through Apply. Ownership of the row transfers to the state: the caller must not
// retain or mutate ch.Fields afterwards. Decoders hand over freshly built
// maps, so skipping the defensive clone halves their row allocations on the
// recovery path.
func (s *State) RestoreChild(collection string, ch Child) {
	if ch.Fields == nil {
		ch.Fields = Fields{}
	}
	s.appendChild(collection, ch)
}

// deleteChild tombstones every row carrying the id, reporting whether any row
// matched. The common single-occurrence case touches one chunk. The position
// found on the shared header stays valid after mutableCol: the header copy
// preserves chunk layout exactly.
func (s *State) deleteChild(collection, id string) bool {
	pos, ok := s.children[collection].find(id)
	if !ok {
		return false
	}
	c := s.mutableCol(collection)
	if c.dups == 0 {
		r := c.mutRow(pos)
		if !r.Deleted {
			r.Deleted = true
			c.live--
		}
		return true
	}
	for pos := 0; pos < c.n; pos++ {
		if c.rowAt(pos).ID == id {
			r := c.mutRow(pos)
			if !r.Deleted {
				r.Deleted = true
				c.live--
			}
		}
	}
	return true
}

// Int returns the named root field as int64 (0 when absent or wrong type).
func (s *State) Int(field string) int64 {
	v, _ := s.Fields[field].(int64)
	return v
}

// Float returns the named root field as float64.
func (s *State) Float(field string) float64 {
	switch v := s.Fields[field].(type) {
	case float64:
		return v
	case int64:
		return float64(v)
	default:
		return 0
	}
}

// StringField returns the named root field as string.
func (s *State) StringField(field string) string {
	v, _ := s.Fields[field].(string)
	return v
}

// Bool returns the named root field as bool.
func (s *State) Bool(field string) bool {
	v, _ := s.Fields[field].(bool)
	return v
}

// OpKind enumerates the operation descriptors a transaction may record.
// Operations are the durable unit: the LSDB stores operations, and current
// state is their rollup (section 3.1).
type OpKind int

// Supported operation kinds. Each kind's number is what the log stores, so
// every kind is pinned to its value: a kind is never renumbered, and a
// retired kind's number is never reused.
const (
	// OpSet assigns a root field (register semantics, last-writer-wins on
	// merge).
	OpSet OpKind = 0
	// OpDelta adds a numeric amount to a root field (commutative; merges by
	// applying both sides, the paper's "commutative update strategy").
	OpDelta OpKind = 1
	// OpInsertChild appends a child row.
	OpInsertChild OpKind = 2
	// opSetChildField assigns a field of an existing child row.
	opSetChildField OpKind = 3
	// opDeltaChildField adds a numeric amount to a field of a child row.
	opDeltaChildField OpKind = 4
	// opDeleteChild tombstones a child row.
	opDeleteChild OpKind = 5
	// opDelete tombstones the whole entity.
	opDelete OpKind = 6
	// 7 (undelete) and 8 (mark-tentative) are retired: nothing produced
	// them, and a stored record that carries one is refused.
	//
	// opConfirm clears the tentative flag; with a promise id as its Value it
	// keeps that promise instead and changes no state (KeepPromise).
	opConfirm OpKind = 9
	// opPromise (10 is unassigned) gives a promise's terms: Field the kind,
	// Value the partner, Delta the quantity. Apply skips it.
	opPromise OpKind = 11
	// opApology breaks promise Value, for reason Describe, with compensation
	// Field. Apply skips it.
	opApology OpKind = 12
)

// Known reports whether k is an operation kind this build applies.
func (k OpKind) Known() bool {
	return k >= OpSet && k <= opDelete || k == opConfirm || k == opPromise || k == opApology
}

// String returns the operation kind name.
func (k OpKind) String() string {
	names := [...]string{OpSet: "set", OpDelta: "delta", OpInsertChild: "insert-child",
		opSetChildField: "set-child-field", opDeltaChildField: "delta-child-field",
		opDeleteChild: "delete-child", opDelete: "delete", opConfirm: "confirm",
		opPromise: "promise", opApology: "apology"}
	if k.Known() {
		return names[k]
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Op is one operation descriptor. The fields used depend on Kind.
type Op struct {
	Kind       OpKind
	Field      string
	Value      interface{}
	Delta      float64
	Collection string
	ChildID    string
	ChildRow   Fields
	// Describe optionally carries the business-level description of the
	// operation ("withdrawal of 50 from account A"), kept alongside the
	// mechanical effect per principle 2.8.
	Describe string
}

// safeValue deep-copies supported container values so an op never aliases
// caller-owned mutable data, and passes everything else through. Unsupported
// kinds are not detected here (constructors cannot fail); SanitizeOps rejects
// them before a record is sealed.
func safeValue(v interface{}) interface{} {
	switch v.(type) {
	case Fields, map[string]interface{}, []interface{}:
		return cloneValue(v)
	default:
		return v
	}
}

// canonNumber maps the accepted numeric widths onto the canonical scalar set
// records are stored with: every integral kind becomes int64 (uint64 values
// above MaxInt64 keep their own identity so the magnitude survives exactly)
// and float32 widens to float64. One canonical form everywhere means the
// in-memory log, the state cache and the durable codecs all agree
// bit-for-bit — a store recovered from disk is byte-identical to the one
// that wrote it. ok is false for non-numeric values.
func canonNumber(v interface{}) (interface{}, bool) {
	switch x := v.(type) {
	case int:
		return int64(x), true
	case int8:
		return int64(x), true
	case int16:
		return int64(x), true
	case int32:
		return int64(x), true
	case uint8:
		return int64(x), true
	case uint16:
		return int64(x), true
	case uint32:
		return int64(x), true
	case uint:
		if uint64(x) > math.MaxInt64 {
			return uint64(x), true
		}
		return int64(x), true
	case uint64:
		if x > math.MaxInt64 {
			return x, true
		}
		return int64(x), true
	case float32:
		return float64(x), true
	default:
		return v, false
	}
}

// checkValue verifies a value is a scalar or a supported container (checked
// recursively) and returns a copy that shares no mutable structure with the
// input, numeric widths canonicalised (see canonNumber).
func checkValue(v interface{}) (interface{}, error) {
	switch x := v.(type) {
	case nil, bool, string, int64, float64:
		return v, nil
	case int, int8, int16, int32,
		uint, uint8, uint16, uint32, uint64,
		float32:
		cv, _ := canonNumber(v)
		return cv, nil
	case Fields:
		out, err := checkRow(x)
		return out, err
	case map[string]interface{}:
		out := make(map[string]interface{}, len(x))
		for k, e := range x {
			ce, err := checkValue(e)
			if err != nil {
				return nil, err
			}
			out[k] = ce
		}
		return out, nil
	case []interface{}:
		out := make([]interface{}, len(x))
		for i, e := range x {
			ce, err := checkValue(e)
			if err != nil {
				return nil, err
			}
			out[i] = ce
		}
		return out, nil
	default:
		return nil, fmt.Errorf("%w: %T", ErrUnsafeValue, v)
	}
}

func checkRow(row Fields) (Fields, error) {
	if row == nil {
		return nil, nil
	}
	out := make(Fields, len(row))
	for k, v := range row {
		cv, err := checkValue(v)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k, err)
		}
		out[k] = cv
	}
	return out, nil
}

// SanitizeOps validates that every value carried by the operations is a
// scalar or a supported container and returns operations whose values share
// no mutable structure with the input. The store calls this before sealing a
// record, so a caller mutating a slice or map it passed into an op can never
// reach into the log or the state cache. Numeric widths are canonicalised on
// the way in (canonNumber), so a sealed record carries the same bytes the
// durable codecs reproduce on recovery. The input slice is returned
// unchanged when no value needed copying or converting.
func SanitizeOps(ops []Op) ([]Op, error) {
	out := ops
	copied := false
	for i, op := range ops {
		needsCopy := false
		var value interface{}
		var row Fields
		switch op.Value.(type) {
		case nil, bool, string, int64, float64:
			value = op.Value
		default:
			if cv, isNum := canonNumber(op.Value); isNum {
				value, needsCopy = cv, true
			} else {
				v, err := checkValue(op.Value)
				if err != nil {
					return nil, fmt.Errorf("op %s: %w", op, err)
				}
				value, needsCopy = v, true
			}
		}
		if op.ChildRow != nil {
			r, err := checkRow(op.ChildRow)
			if err != nil {
				return nil, fmt.Errorf("op %s: %w", op, err)
			}
			row, needsCopy = r, true
		}
		if !needsCopy {
			continue
		}
		if !copied {
			out = append([]Op(nil), ops...)
			copied = true
		}
		out[i].Value = value
		out[i].ChildRow = row
	}
	return out, nil
}

// Set returns an operation assigning a root field.
func Set(field string, value interface{}) Op {
	return Op{Kind: OpSet, Field: field, Value: safeValue(value)}
}

// Delta returns a commutative numeric increment of a root field.
func Delta(field string, amount float64) Op { return Op{Kind: OpDelta, Field: field, Delta: amount} }

// InsertChild returns an operation appending a child row. The row map is
// copied, so the caller may keep mutating its own map afterwards.
func InsertChild(collection, childID string, row Fields) Op {
	return Op{Kind: OpInsertChild, Collection: collection, ChildID: childID, ChildRow: row.Clone()}
}

// SetChildField returns an operation assigning one field of a child row.
func SetChildField(collection, childID, field string, value interface{}) Op {
	return Op{Kind: opSetChildField, Collection: collection, ChildID: childID, Field: field, Value: safeValue(value)}
}

// DeltaChildField returns a commutative increment of one field of a child row.
func DeltaChildField(collection, childID, field string, amount float64) Op {
	return Op{Kind: opDeltaChildField, Collection: collection, ChildID: childID, Field: field, Delta: amount}
}

// DeleteChild returns an operation tombstoning a child row.
func DeleteChild(collection, childID string) Op {
	return Op{Kind: opDeleteChild, Collection: collection, ChildID: childID}
}

// Delete returns an operation tombstoning the entity.
func Delete() Op { return Op{Kind: opDelete} }

// Confirm returns an operation confirming previously tentative state.
func Confirm() Op { return Op{Kind: opConfirm} }

// Promise returns the terms a tentative record carries to make a promise
// (principle 2.9): its kind, partner and quantity (zero if none).
func Promise(kind, partner string, quantity float64) Op {
	return Op{Kind: opPromise, Field: kind, Value: partner, Delta: quantity}
}

// KeepPromise returns the settlement that keeps promise id.
func KeepPromise(id string) Op { return Op{Kind: opConfirm, Value: id} }

// BreakPromise returns the settlement that breaks promise id: the apology,
// with its reason and the compensation offered.
func BreakPromise(id, reason, compensation string) Op {
	return Op{Kind: opApology, Value: id, Describe: reason, Field: compensation}
}

// Settles returns the promise o settles and whether it breaks it; ok is
// false for an op that is no settlement, which costs one kind test.
func (o Op) Settles() (id string, broken, ok bool) {
	if o.Kind < opConfirm {
		return "", false, false
	}
	id, ok = o.Value.(string)
	return id, o.Kind == opApology, ok && o.Kind != opPromise
}

// Terms returns the terms a Promise op gives; ok is false for any other op.
func (o Op) Terms() (kind, partner string, quantity float64, ok bool) {
	if o.Kind != opPromise {
		return "", "", 0, false
	}
	partner, _ = o.Value.(string)
	return o.Field, partner, o.Delta, true
}

// Described attaches a business description to the operation (principle 2.8).
func (o Op) Described(text string) Op {
	o.Describe = text
	return o
}

// Commutes reports whether the operation commutes with any other operation of
// the same shape on the same entity. Commutative operations are merged by
// replaying both sides; non-commutative ones need last-writer-wins or a
// custom merger.
func (o Op) Commutes() bool {
	switch o.Kind {
	case OpDelta, opDeltaChildField, OpInsertChild:
		return true
	default:
		return false
	}
}

// String renders the operation for logs and apologies.
func (o Op) String() string {
	switch o.Kind {
	case OpSet:
		return fmt.Sprintf("set %s=%v", o.Field, o.Value)
	case OpDelta:
		return fmt.Sprintf("delta %s%+g", o.Field, o.Delta)
	case OpInsertChild:
		return fmt.Sprintf("insert %s[%s]", o.Collection, o.ChildID)
	case opSetChildField:
		return fmt.Sprintf("set %s[%s].%s=%v", o.Collection, o.ChildID, o.Field, o.Value)
	case opDeltaChildField:
		return fmt.Sprintf("delta %s[%s].%s%+g", o.Collection, o.ChildID, o.Field, o.Delta)
	case opDeleteChild:
		return fmt.Sprintf("delete %s[%s]", o.Collection, o.ChildID)
	case opPromise:
		return fmt.Sprintf("promise %s to %v (%g)", o.Field, o.Value, o.Delta)
	case opApology:
		return fmt.Sprintf("apology for %v: %s", o.Value, o.Describe)
	default:
		return o.Kind.String()
	}
}

// ValidationMode controls how schema and constraint violations are treated.
type ValidationMode int

// Validation modes.
const (
	// Strict rejects operations violating the schema (the conventional DMS
	// behaviour the paper argues against for early-lifecycle data).
	Strict ValidationMode = iota
	// Managed accepts the operation and reports the violation as a Warning so
	// the business process can handle it (principle 2.2 "Out-of-order works").
	Managed
)

// Warning describes a constraint violation that was accepted and must be
// handled by a later process step rather than blocking data entry.
type Warning struct {
	Key     Key
	Op      Op
	Problem string
}

// String renders the warning.
func (w Warning) String() string {
	return fmt.Sprintf("%s: %s (op %s)", w.Key, w.Problem, w.Op)
}

// Apply applies ops to a copy-on-write clone of prior and returns the new
// state plus any managed-mode warnings. Only the chunks the operations touch
// are copied — O(delta), not O(state size) — and prior (frozen or not) is
// never modified. In Strict mode the first violation aborts the whole
// application and the prior state is returned unchanged.
func Apply(typ *Type, prior *State, ops []Op, mode ValidationMode) (*State, []Warning, error) {
	next := prior.Clone()
	warnings, err := ApplyInPlace(typ, next, ops, mode)
	if err != nil {
		// The partial clone is abandoned; its privately copied chunks go
		// back to the free list.
		next.Recycle()
		return prior, nil, err
	}
	return next, warnings, nil
}

// ApplyInPlace applies ops to st itself — the copy-free half of Apply, for a
// caller that owns st outright (a rollup it has just built and shares with
// nobody). st must be mutable. On an error st is left partially applied and
// is only fit to be discarded (Recycle).
func ApplyInPlace(typ *Type, st *State, ops []Op, mode ValidationMode) ([]Warning, error) {
	var warnings []Warning
	for i := range ops {
		w, err := applyOne(typ, st, ops[i], mode)
		if err != nil {
			return nil, fmt.Errorf("applying %s to %s: %w", ops[i], st.Key, err)
		}
		warnings = append(warnings, w...)
	}
	return warnings, nil
}

func applyOne(typ *Type, s *State, op Op, mode ValidationMode) ([]Warning, error) {
	var warnings []Warning
	warn := func(problem string) error {
		if mode == Strict {
			return errors.New(problem)
		}
		warnings = append(warnings, Warning{Key: s.Key, Op: op, Problem: problem})
		return nil
	}
	if _, _, settles := op.Settles(); settles || op.Kind == opPromise {
		return nil, nil // promise terms and settlements change no state
	}
	if s.Deleted && op.Kind != opDelete {
		if err := warn(ErrDeleted.Error()); err != nil {
			return nil, ErrDeleted
		}
	}
	switch op.Kind {
	case OpSet:
		f, ok := typ.field(op.Field)
		if !ok {
			if err := warn(fmt.Sprintf("%v: %s", ErrUnknownField, op.Field)); err != nil {
				return nil, ErrUnknownField
			}
			s.Fields[op.Field] = op.Value
			return warnings, nil
		}
		v, err := coerce(f.Type, op.Value)
		if err != nil {
			if werr := warn(err.Error()); werr != nil {
				return nil, err
			}
			return warnings, nil
		}
		s.Fields[op.Field] = v
	case OpDelta:
		f, ok := typ.field(op.Field)
		if ok && f.Type != Int && f.Type != Float {
			if err := warn(fmt.Sprintf("delta on non-numeric field %s", op.Field)); err != nil {
				return nil, ErrTypeMismatch
			}
			return warnings, nil
		}
		applyDelta(s.Fields, op.Field, op.Delta, !ok || f.Type == Float)
	case OpInsertChild:
		coll, ok := typ.child(op.Collection)
		if !ok {
			if err := warn(fmt.Sprintf("%v: %s", ErrUnknownCollection, op.Collection)); err != nil {
				return nil, ErrUnknownCollection
			}
			s.appendChild(op.Collection, Child{ID: op.ChildID, Fields: op.ChildRow.Clone()})
			return warnings, nil
		}
		row := Fields{}
		for k, v := range op.ChildRow {
			f, ok := coll.field(k)
			if !ok {
				if err := warn(fmt.Sprintf("%v: %s.%s", ErrUnknownField, op.Collection, k)); err != nil {
					return nil, ErrUnknownField
				}
				row[k] = v
				continue
			}
			cv, err := coerce(f.Type, v)
			if err != nil {
				if werr := warn(err.Error()); werr != nil {
					return nil, err
				}
				continue
			}
			row[k] = cv
		}
		for _, f := range coll.Fields {
			if f.Required {
				if _, present := row[f.Name]; !present {
					if err := warn(fmt.Sprintf("%v: %s.%s", ErrMissingRequired, op.Collection, f.Name)); err != nil {
						return nil, ErrMissingRequired
					}
				}
			}
		}
		// Insert of an existing live id acts as an upsert of the provided
		// fields; insert-only storage still records the operation.
		s.insertChild(op.Collection, op.ChildID, row)
	case opSetChildField, opDeltaChildField:
		coll, collOK := typ.child(op.Collection)
		if !collOK {
			if err := warn(fmt.Sprintf("%v: %s", ErrUnknownCollection, op.Collection)); err != nil {
				return nil, ErrUnknownCollection
			}
		}
		c := s.mutableCol(op.Collection)
		pos, ok := c.find(op.ChildID)
		if !ok {
			if err := warn(fmt.Sprintf("%v: %s[%s]", ErrNoSuchChild, op.Collection, op.ChildID)); err != nil {
				return nil, ErrNoSuchChild
			}
			// Managed mode: materialise the child so the update is not lost
			// (data arrived out of order, principle 2.2).
			pos = c.n
			c.appendRow(Child{ID: op.ChildID, Fields: Fields{}})
		}
		if op.Kind == opSetChildField {
			value := op.Value
			if collOK {
				if f, ok := coll.field(op.Field); ok {
					cv, err := coerce(f.Type, op.Value)
					if err != nil {
						if werr := warn(err.Error()); werr != nil {
							return nil, err
						}
						return warnings, nil
					}
					value = cv
				}
			}
			c.mutRow(pos).Fields[op.Field] = value
		} else {
			isFloat := true
			if collOK {
				if f, ok := coll.field(op.Field); ok {
					isFloat = f.Type == Float
				}
			}
			applyDelta(c.mutRow(pos).Fields, op.Field, op.Delta, isFloat)
		}
	case opDeleteChild:
		if !s.deleteChild(op.Collection, op.ChildID) {
			if err := warn(fmt.Sprintf("%v: %s[%s]", ErrNoSuchChild, op.Collection, op.ChildID)); err != nil {
				return nil, ErrNoSuchChild
			}
		}
	case opDelete:
		s.Deleted = true
	case opConfirm:
		s.Tentative = false
	default:
		return nil, fmt.Errorf("entity: unsupported operation kind %v", op.Kind)
	}
	return warnings, nil
}

// applyDelta adds amount to the numeric field, creating it when absent.
func applyDelta(fields Fields, name string, amount float64, asFloat bool) {
	switch cur := fields[name].(type) {
	case int64:
		if asFloat {
			fields[name] = float64(cur) + amount
		} else {
			fields[name] = cur + int64(amount)
		}
	case float64:
		fields[name] = cur + amount
	default:
		if asFloat {
			fields[name] = amount
		} else {
			fields[name] = int64(amount)
		}
	}
}

// coerce converts a value into the declared field type, accepting the natural
// Go widenings (int → int64 → float64). A value already of the declared type
// is returned as it came, not boxed again.
func coerce(t FieldType, v interface{}) (interface{}, error) {
	switch t {
	case String, Reference:
		if _, ok := v.(string); !ok {
			return nil, fmt.Errorf("%w: want string, got %T", ErrTypeMismatch, v)
		}
		return v, nil
	case Int:
		switch x := v.(type) {
		case int:
			return int64(x), nil
		case int64:
			return v, nil
		case float64:
			if x == float64(int64(x)) {
				return int64(x), nil
			}
			return nil, fmt.Errorf("%w: non-integral float %v for int field", ErrTypeMismatch, x)
		default:
			return nil, fmt.Errorf("%w: want int, got %T", ErrTypeMismatch, v)
		}
	case Float:
		switch x := v.(type) {
		case int:
			return float64(x), nil
		case int64:
			return float64(x), nil
		case float64:
			return v, nil
		default:
			return nil, fmt.Errorf("%w: want float, got %T", ErrTypeMismatch, v)
		}
	case Bool:
		if _, ok := v.(bool); !ok {
			return nil, fmt.Errorf("%w: want bool, got %T", ErrTypeMismatch, v)
		}
		return v, nil
	default:
		return nil, fmt.Errorf("%w: unknown field type %v", ErrTypeMismatch, t)
	}
}

// Version is one immutable entry in an entity's insert-only history: the
// operations performed, the resulting state, causal metadata and flags.
type Version struct {
	Key       Key
	Seq       uint64 // per-entity monotonically increasing sequence
	Ops       []Op
	State     *State
	Stamp     clock.Timestamp
	Tentative bool
	// Obsolete marks a tentative version whose promise was withdrawn; it
	// stays in the history for audit and apology purposes.
	Obsolete bool
	// Origin names the node/replica that produced the version.
	Origin clock.NodeID
	// TxnID identifies the producing transaction for idempotence checks.
	TxnID string
}

// History is the insert-only version chain of one entity (principle 2.7).
type History struct {
	Key      Key
	Versions []*Version
}

// NewHistory returns an empty history for key.
func NewHistory(key Key) *History { return &History{Key: key} }

// Append adds a version; versions must be appended in Seq order per origin
// but the history tolerates interleaving from multiple replicas.
func (h *History) Append(v *Version) { h.Versions = append(h.Versions, v) }

// Len returns the number of versions, including obsolete ones.
func (h *History) Len() int { return len(h.Versions) }

// AsOf returns the latest non-obsolete version whose timestamp does not
// exceed ts (nil if none).
func (h *History) AsOf(ts clock.Timestamp) *Version {
	var best *Version
	for _, v := range h.Versions {
		if v.Obsolete {
			continue
		}
		if v.Stamp.Compare(ts) == clock.After {
			continue
		}
		if best == nil || v.Stamp.Compare(best.Stamp) == clock.After {
			best = v
		}
	}
	return best
}

// ContainsTxn reports whether a version produced by txnID is already present,
// which is how idempotent re-application of at-least-once deliveries is
// detected (principle 2.4).
func (h *History) ContainsTxn(txnID string) bool {
	if txnID == "" {
		return false
	}
	for _, v := range h.Versions {
		if v.TxnID == txnID {
			return true
		}
	}
	return false
}

// Trace renders the history as a human-readable audit trail: the paper's
// negative-inventory example requires being able to show "the history that
// resulted in negative inventory levels" (principle 2.1).
func (h *History) Trace() []string {
	out := make([]string, 0, len(h.Versions))
	for _, v := range h.Versions {
		var ops []string
		for _, op := range v.Ops {
			if op.Describe != "" {
				ops = append(ops, op.Describe)
			} else {
				ops = append(ops, op.String())
			}
		}
		flag := ""
		if v.Obsolete {
			flag = " [obsolete]"
		} else if v.Tentative {
			flag = " [tentative]"
		}
		out = append(out, fmt.Sprintf("#%d %s by %s: %s%s", v.Seq, v.Stamp, v.Origin, strings.Join(ops, "; "), flag))
	}
	return out
}
