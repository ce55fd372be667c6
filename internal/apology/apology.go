// Package apology implements the tentative-operation and apology-oriented
// computing machinery of principles 2.1 and 2.9: business promises (an order
// confirmation, an available-to-purchase offer) are recorded as tentative,
// visible and durable commitments; when reality or replica reconciliation
// makes a promise impossible to keep, the infrastructure breaks it, issues an
// apology and triggers compensation, rather than blocking the business up
// front.
package apology

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/entity"
)

// Common errors.
var (
	// ErrUnknownPromise is returned when keeping or breaking a promise that
	// was never registered.
	ErrUnknownPromise = errors.New("apology: unknown promise")
	// ErrAlreadySettled is returned when a promise has already been kept or
	// broken.
	ErrAlreadySettled = errors.New("apology: promise already settled")
	// ErrPromiseLimit is returned by MakeChecked when an entity already
	// carries its maximum number of pending promises. Refusing the promise
	// up front is the guardrail against unbounded over-promising: every
	// pending promise is a potential apology, and a business caps how many
	// it is willing to owe on one entity before it stops promising.
	ErrPromiseLimit = errors.New("apology: promise limit reached")
)

// Status is the lifecycle state of a promise.
type Status int

// Promise states.
const (
	// Pending promises have been made but not yet fulfilled or withdrawn.
	Pending Status = iota
	// Kept promises were fulfilled.
	Kept
	// Broken promises were withdrawn; an apology was issued.
	Broken
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case Pending:
		return "pending"
	case Kept:
		return "kept"
	case Broken:
		return "broken"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Promise is a tentative business commitment to a partner.
type Promise struct {
	ID      string
	Kind    string // e.g. "order-confirmation", "available-to-purchase"
	Entity  entity.Key
	TxnID   string // the tentative LSDB record backing the promise
	Partner string // who the promise was made to
	// Quantity is the promised amount for capacity-style promises (books,
	// inventory, seats); zero for non-quantitative promises.
	Quantity float64
	// Deadline is when the promise expires on its own.
	Deadline time.Time
	Made     time.Time
	Status   Status
}

// Apology records that a promise was broken, to whom, and what compensation
// was offered.
type Apology struct {
	PromiseID    string
	Kind         string
	Partner      string
	Reason       string
	Compensation string
	Issued       time.Time
}

// String renders the apology the way a customer-facing message would.
func (a Apology) String() string {
	s := fmt.Sprintf("apology to %s: %s (promise %s, %s)", a.Partner, a.Reason, a.PromiseID, a.Kind)
	if a.Compensation != "" {
		s += "; compensation: " + a.Compensation
	}
	return s
}

// Options configure a Ledger.
type Options struct {
	// Clock supplies time (tests inject a fake source).
	Clock func() time.Time
	// OnBreak is called for every broken promise (may be nil), so the
	// caller can withdraw the tentative LSDB record and schedule
	// compensation process steps.
	OnBreak func(p Promise, reason string)
	// MaxPendingPerEntity caps how many pending promises one entity may
	// carry at once; MakeChecked refuses further promises with
	// ErrPromiseLimit until some settle. Zero means unlimited. The plain
	// Make path registers unconditionally — callers that configure a limit
	// should promise through MakeChecked.
	MaxPendingPerEntity int
}

// Ledger tracks promises and the apologies issued for broken ones. All
// methods are safe for concurrent use.
type Ledger struct {
	opts Options

	mu        sync.Mutex
	promises  map[string]*Promise
	apologies []Apology
	seq       uint64
	kept      uint64
	broken    uint64
}

// NewLedger creates an empty ledger.
func NewLedger(opts Options) *Ledger {
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	return &Ledger{opts: opts, promises: map[string]*Promise{}}
}

// Make registers a new pending promise and returns it with an assigned ID.
// It never refuses; see MakeChecked for the limit-enforcing variant.
func (l *Ledger) Make(p Promise) Promise {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.makeLocked(p)
}

// MakeChecked registers a new pending promise like Make, but enforces
// Options.MaxPendingPerEntity: when the promise's entity already carries the
// maximum number of pending promises it returns ErrPromiseLimit and registers
// nothing. The check and the registration are atomic, so concurrent promisers
// cannot jointly overshoot the limit.
func (l *Ledger) MakeChecked(p Promise) (Promise, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if max := l.opts.MaxPendingPerEntity; max > 0 {
		pending := 0
		for _, q := range l.promises {
			if q.Status == Pending && q.Entity == p.Entity {
				pending++
			}
		}
		if pending >= max {
			return Promise{}, fmt.Errorf("%w: %d pending on %s", ErrPromiseLimit, pending, p.Entity)
		}
	}
	return l.makeLocked(p), nil
}

func (l *Ledger) makeLocked(p Promise) Promise {
	l.seq++
	if p.ID == "" {
		p.ID = fmt.Sprintf("promise-%d", l.seq)
	}
	p.Status = Pending
	p.Made = l.opts.Clock()
	cp := p
	l.promises[p.ID] = &cp
	return p
}

// Get returns a copy of the promise.
func (l *Ledger) Get(id string) (Promise, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	p, ok := l.promises[id]
	if !ok {
		return Promise{}, fmt.Errorf("%w: %s", ErrUnknownPromise, id)
	}
	return *p, nil
}

// Keep marks the promise as fulfilled.
func (l *Ledger) Keep(id string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	p, ok := l.promises[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownPromise, id)
	}
	if p.Status != Pending {
		return fmt.Errorf("%w: %s is %s", ErrAlreadySettled, id, p.Status)
	}
	p.Status = Kept
	l.kept++
	return nil
}

// Break withdraws the promise, records an apology and invokes the break hook.
func (l *Ledger) Break(id, reason, compensation string) (Apology, error) {
	l.mu.Lock()
	p, ok := l.promises[id]
	if !ok {
		l.mu.Unlock()
		return Apology{}, fmt.Errorf("%w: %s", ErrUnknownPromise, id)
	}
	if p.Status != Pending {
		l.mu.Unlock()
		return Apology{}, fmt.Errorf("%w: %s is %s", ErrAlreadySettled, id, p.Status)
	}
	p.Status = Broken
	l.broken++
	a := Apology{
		PromiseID:    p.ID,
		Kind:         p.Kind,
		Partner:      p.Partner,
		Reason:       reason,
		Compensation: compensation,
		Issued:       l.opts.Clock(),
	}
	l.apologies = append(l.apologies, a)
	hook := l.opts.OnBreak
	promiseCopy := *p
	l.mu.Unlock()
	if hook != nil {
		hook(promiseCopy, reason)
	}
	return a, nil
}

// Pending returns copies of all pending promises, ordered by when they were
// made (first-come-first-served, the order overbooking resolution honours).
func (l *Ledger) Pending() []Promise {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Promise
	for _, p := range l.promises {
		if p.Status == Pending {
			out = append(out, *p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Made.Equal(out[j].Made) {
			return out[i].ID < out[j].ID
		}
		return out[i].Made.Before(out[j].Made)
	})
	return out
}

// PendingFor returns pending promises concerning one entity.
func (l *Ledger) PendingFor(key entity.Key) []Promise {
	var out []Promise
	for _, p := range l.Pending() {
		if p.Entity == key {
			out = append(out, p)
		}
	}
	return out
}

// Apologies returns a copy of all apologies issued so far.
func (l *Ledger) Apologies() []Apology {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Apology(nil), l.apologies...)
}

// Counts returns (pending, kept, broken).
func (l *Ledger) Counts() (int, uint64, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	pending := 0
	for _, p := range l.promises {
		if p.Status == Pending {
			pending++
		}
	}
	return pending, l.kept, l.broken
}

// ApologyRate returns broken / (kept + broken), the headline metric of
// experiment E6. It is zero when nothing has been settled yet.
func (l *Ledger) ApologyRate() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	settled := l.kept + l.broken
	if settled == 0 {
		return 0
	}
	return float64(l.broken) / float64(settled)
}

// ResolveOverbooking settles the pending promises for one entity against the
// actually available quantity: promises are honoured first-come-first-served
// until capacity runs out; the rest are broken with the given reason. This is
// the bookstore scenario of principle 2.9 (5 copies, more than 5 sold).
// It returns how many promises were kept and the apologies issued.
func (l *Ledger) ResolveOverbooking(key entity.Key, available float64, reason, compensation string) (int, []Apology, error) {
	pending := l.PendingFor(key)
	kept := 0
	var apologies []Apology
	remaining := available
	for _, p := range pending {
		need := p.Quantity
		if need <= 0 {
			need = 1
		}
		if need <= remaining {
			if err := l.Keep(p.ID); err != nil {
				return kept, apologies, err
			}
			remaining -= need
			kept++
			continue
		}
		a, err := l.Break(p.ID, reason, compensation)
		if err != nil {
			return kept, apologies, err
		}
		apologies = append(apologies, a)
	}
	return kept, apologies, nil
}

// ExpireOverdue breaks every pending promise whose deadline has passed,
// returning the apologies issued. It models offers that lapse (the
// available-to-purchase deadline of SAP SCM).
func (l *Ledger) ExpireOverdue(reason string) []Apology {
	now := l.opts.Clock()
	var out []Apology
	for _, p := range l.Pending() {
		if !p.Deadline.IsZero() && p.Deadline.Before(now) {
			if a, err := l.Break(p.ID, reason, ""); err == nil {
				out = append(out, a)
			}
		}
	}
	return out
}
