// Package clock provides the logical time primitives used throughout the
// kernel: Lamport clocks, hybrid logical clocks (HLC), version vectors and
// dotted version vectors.
//
// The paper's principles 2.7 ("I remember it well") and 2.10 ("Solipsists get
// things done quickly") require that every write be recorded as a new,
// causally ordered version, and that conflicts between subjective replicas be
// detectable after the fact. Logical clocks provide the ordering; version
// vectors provide the concurrency (conflict) detection.
package clock

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// NodeID identifies a participant (replica, serialization unit or client)
// that issues events.
type NodeID string

// Ordering is the result of comparing two logical timestamps or vectors.
type Ordering int

// Possible results of a causality comparison.
const (
	// Before means the receiver causally precedes the argument.
	Before Ordering = iota - 1
	// Equal means the two timestamps are identical.
	Equal
	// After means the receiver causally follows the argument.
	After
	// Concurrent means neither dominates the other; the events conflict.
	Concurrent
)

// String returns a human-readable name for the ordering.
func (o Ordering) String() string {
	switch o {
	case Before:
		return "before"
	case Equal:
		return "equal"
	case After:
		return "after"
	case Concurrent:
		return "concurrent"
	default:
		return fmt.Sprintf("Ordering(%d)", int(o))
	}
}

// Lamport is a classic Lamport scalar clock. The zero value is ready to use.
// All methods are safe for concurrent use.
type Lamport struct {
	mu  sync.Mutex
	val uint64
}

// Now returns the current clock value without advancing it.
func (l *Lamport) Now() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.val
}

// Tick advances the clock for a local event and returns the new value.
func (l *Lamport) Tick() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.val++
	return l.val
}

// Observe merges a remote timestamp into the clock (receive rule) and returns
// the new local value.
func (l *Lamport) Observe(remote uint64) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if remote > l.val {
		l.val = remote
	}
	l.val++
	return l.val
}

// HLC is a hybrid logical clock combining physical time with a logical
// counter, so timestamps are close to wall-clock time but still respect
// causality. The zero value is not usable; construct with NewHLC.
type HLC struct {
	mu      sync.Mutex
	node    NodeID
	wall    int64 // last observed physical time, nanoseconds
	logical uint32
	nowFn   func() time.Time
}

// Timestamp is a single HLC reading. Timestamps are totally ordered by
// (WallNanos, Logical, Node).
type Timestamp struct {
	WallNanos int64
	Logical   uint32
	Node      NodeID
}

// Compare orders two timestamps. It returns Before, Equal or After (never
// Concurrent, since HLC timestamps are totally ordered).
func (t Timestamp) Compare(o Timestamp) Ordering {
	switch {
	case t.WallNanos < o.WallNanos:
		return Before
	case t.WallNanos > o.WallNanos:
		return After
	case t.Logical < o.Logical:
		return Before
	case t.Logical > o.Logical:
		return After
	case t.Node < o.Node:
		return Before
	case t.Node > o.Node:
		return After
	default:
		return Equal
	}
}

// IsZero reports whether the timestamp is the zero value.
func (t Timestamp) IsZero() bool {
	return t.WallNanos == 0 && t.Logical == 0 && t.Node == ""
}

// String renders the timestamp in a compact sortable form.
func (t Timestamp) String() string {
	return fmt.Sprintf("%d.%d@%s", t.WallNanos, t.Logical, t.Node)
}

// NewHLC returns a hybrid logical clock for the given node using the real
// wall clock.
func NewHLC(node NodeID) *HLC {
	return NewHLCWithSource(node, time.Now)
}

// NewHLCWithSource returns an HLC that reads physical time from nowFn. Tests
// and the deterministic network simulator supply a fake source.
func NewHLCWithSource(node NodeID, nowFn func() time.Time) *HLC {
	if nowFn == nil {
		nowFn = time.Now
	}
	return &HLC{node: node, nowFn: nowFn}
}

// Node returns the node identity stamped onto timestamps.
func (h *HLC) Node() NodeID { return h.node }

// Now issues a timestamp for a local event (send rule).
func (h *HLC) Now() Timestamp {
	h.mu.Lock()
	defer h.mu.Unlock()
	phys := h.nowFn().UnixNano()
	if phys > h.wall {
		h.wall = phys
		h.logical = 0
	} else {
		h.logical++
	}
	return Timestamp{WallNanos: h.wall, Logical: h.logical, Node: h.node}
}

// Observe merges a remote timestamp (receive rule) and returns the local
// timestamp assigned to the receive event.
func (h *HLC) Observe(remote Timestamp) Timestamp {
	h.mu.Lock()
	defer h.mu.Unlock()
	phys := h.nowFn().UnixNano()
	switch {
	case phys > h.wall && phys > remote.WallNanos:
		h.wall = phys
		h.logical = 0
	case remote.WallNanos > h.wall:
		h.wall = remote.WallNanos
		h.logical = remote.Logical + 1
	case h.wall > remote.WallNanos:
		h.logical++
	default: // equal walls
		if remote.Logical > h.logical {
			h.logical = remote.Logical
		}
		h.logical++
	}
	return Timestamp{WallNanos: h.wall, Logical: h.logical, Node: h.node}
}

// VersionVector maps node identities to the count of events observed from
// each node. It is the standard mechanism for detecting concurrent updates
// between subjective replicas (principle 2.10).
type VersionVector map[NodeID]uint64

// NewVersionVector returns an empty version vector.
func NewVersionVector() VersionVector { return VersionVector{} }

// Clone returns a deep copy.
func (v VersionVector) Clone() VersionVector {
	out := make(VersionVector, len(v))
	for k, n := range v {
		out[k] = n
	}
	return out
}

// Get returns the counter for node (zero if absent).
func (v VersionVector) Get(node NodeID) uint64 { return v[node] }

// Increment bumps the counter for node and returns the new value.
func (v VersionVector) Increment(node NodeID) uint64 {
	v[node]++
	return v[node]
}

// Merge folds other into v, taking the element-wise maximum.
func (v VersionVector) Merge(other VersionVector) {
	for k, n := range other {
		if n > v[k] {
			v[k] = n
		}
	}
}

// Merged returns a new vector that is the element-wise maximum of v and other.
func (v VersionVector) Merged(other VersionVector) VersionVector {
	out := v.Clone()
	out.Merge(other)
	return out
}

// Compare determines the causal relation between v and other.
func (v VersionVector) Compare(other VersionVector) Ordering {
	less, greater := false, false
	for k, n := range v {
		o := other[k]
		if n < o {
			less = true
		} else if n > o {
			greater = true
		}
	}
	for k, o := range other {
		if _, ok := v[k]; !ok && o > 0 {
			less = true
		}
	}
	switch {
	case less && greater:
		return Concurrent
	case less:
		return Before
	case greater:
		return After
	default:
		return Equal
	}
}

// Dominates reports whether v has observed everything other has (v >= other).
func (v VersionVector) Dominates(other VersionVector) bool {
	c := v.Compare(other)
	return c == After || c == Equal
}

// Concurrent reports whether neither vector dominates the other.
func (v VersionVector) Concurrent(other VersionVector) bool {
	return v.Compare(other) == Concurrent
}

// String renders the vector deterministically (sorted by node).
func (v VersionVector) String() string {
	keys := make([]string, 0, len(v))
	for k := range v {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s:%d", k, v[NodeID(k)])
	}
	b.WriteByte('}')
	return b.String()
}

// Dot identifies one specific event: the n-th event issued by a node.
type Dot struct {
	Node    NodeID
	Counter uint64
}

// String renders the dot as node:counter.
func (d Dot) String() string { return fmt.Sprintf("%s:%d", d.Node, d.Counter) }

// DottedVersionVector pairs a causal context (the version vector of events
// known when the write happened) with the dot of the write itself. DVVs allow
// a replica to distinguish "newer value" from "concurrent sibling" precisely,
// which is what the paper's infrastructure-based conflict resolution needs.
type DottedVersionVector struct {
	Dot     Dot
	Context VersionVector
}

// NewDVV stamps a new write by node against the causal context ctx.
// The context is cloned; callers may keep mutating their vector.
func NewDVV(node NodeID, ctx VersionVector) DottedVersionVector {
	c := ctx.Clone()
	counter := c.Increment(node)
	return DottedVersionVector{Dot: Dot{Node: node, Counter: counter}, Context: c}
}

// Descends reports whether d causally includes other's dot (i.e. d was made
// with knowledge of other, so other is obsolete).
func (d DottedVersionVector) Descends(other DottedVersionVector) bool {
	return d.Context.Get(other.Dot.Node) >= other.Dot.Counter
}

// Compare returns the causal relation between two dotted versions.
func (d DottedVersionVector) Compare(other DottedVersionVector) Ordering {
	dDesc := d.Descends(other)
	oDesc := other.Descends(d)
	switch {
	case d.Dot == other.Dot:
		return Equal
	case dDesc && !oDesc:
		return After
	case oDesc && !dDesc:
		return Before
	case dDesc && oDesc:
		return Equal
	default:
		return Concurrent
	}
}

// Join returns the version vector containing both the context and the dot,
// i.e. everything this version has seen including itself.
func (d DottedVersionVector) Join() VersionVector {
	out := d.Context.Clone()
	if out[d.Dot.Node] < d.Dot.Counter {
		out[d.Dot.Node] = d.Dot.Counter
	}
	return out
}

// Sequence hands out strictly monotonically increasing identifiers. It backs
// log sequence numbers in the LSDB and message ids in the queues. The zero
// value is ready to use and safe for concurrent use.
type Sequence struct {
	mu   sync.Mutex
	next uint64
}

// Next returns the next identifier, starting from 1.
func (s *Sequence) Next() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next++
	return s.next
}

// Reserve allocates n consecutive identifiers in one acquisition and returns
// the first of the run; the caller owns first..first+n-1. The group-commit
// leader in the LSDB uses it to stamp a whole batch of appends with one
// contiguous LSN run instead of taking the sequence lock once per record.
// Reserving zero identifiers returns the next unissued value without
// consuming it.
func (s *Sequence) Reserve(n int) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	first := s.next + 1
	if n > 0 {
		s.next += uint64(n)
	}
	return first
}

// Rollback un-issues a reservation of n identifiers starting at first. The
// LSDB calls it when a log-first append fails after reserving LSNs: putting
// the run back keeps the durable log dense (no LSN gaps), which standby
// contiguous watermarks and the group-commit contract depend on. It succeeds
// only when first..first+n-1 is exactly the tip of the sequence — callers
// must serialise allocation and rollback under their own lock so no later
// reservation can interleave.
func (s *Sequence) Rollback(first uint64, n int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n <= 0 || first == 0 || first+uint64(n)-1 != s.next {
		return false
	}
	s.next = first - 1
	return true
}

// Peek returns the most recently issued identifier (0 if none yet).
func (s *Sequence) Peek() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next
}

// AdvanceTo moves the sequence forward so the next issued id is strictly
// greater than floor. It never moves the sequence backwards.
func (s *Sequence) AdvanceTo(floor uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if floor > s.next {
		s.next = floor
	}
}
