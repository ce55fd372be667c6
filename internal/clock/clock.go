// Package clock provides the logical time primitives used throughout the
// kernel: hybrid logical clocks (HLC), whose timestamps stamp every
// transaction, and monotonic sequences, which number log records and queued
// messages.
//
// The paper's principle 2.7 ("I remember it well") requires that every write
// be recorded as a new, ordered version; HLC timestamps give that order while
// staying close to wall-clock time.
package clock

import (
	"fmt"
	"sync"
	"time"
)

// NodeID identifies a participant (replica, serialization unit or client)
// that issues events.
type NodeID string

// Ordering is the result of comparing two timestamps.
type Ordering int

// Possible results of a comparison.
const (
	// before means the receiver causally precedes the argument.
	before Ordering = iota - 1
	// Equal means the two timestamps are identical.
	Equal
	// After means the receiver causally follows the argument.
	After
)

// String returns a human-readable name for the ordering.
func (o Ordering) String() string {
	switch o {
	case before:
		return "before"
	case Equal:
		return "equal"
	case After:
		return "after"
	default:
		return fmt.Sprintf("Ordering(%d)", int(o))
	}
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

// Compare orders two timestamps: before, Equal or After, since HLC timestamps
// are totally ordered.
func (t Timestamp) Compare(o Timestamp) Ordering {
	switch {
	case t.WallNanos < o.WallNanos:
		return before
	case t.WallNanos > o.WallNanos:
		return After
	case t.Logical < o.Logical:
		return before
	case t.Logical > o.Logical:
		return After
	case t.Node < o.Node:
		return before
	case t.Node > o.Node:
		return After
	default:
		return Equal
	}
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
