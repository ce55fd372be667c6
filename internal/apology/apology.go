// Package apology holds the values of the tentative operations and apologies
// of principles 2.1 and 2.9: business promises (an order confirmation, an
// available-to-purchase offer) are tentative, visible and durable
// commitments; when one cannot be kept, the infrastructure breaks it with an
// apology and compensation rather than blocking the business up front. The
// promises are log state (internal/lsdb, promise.go); this package keeps the
// values the kernel hands out, the errors a refused promise or settlement
// returns, and the first-come-first-served overbooking policy.
package apology

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/entity"
)

// Common errors.
var (
	// ErrUnknownPromise is returned when keeping or breaking a promise that
	// was never made.
	ErrUnknownPromise = errors.New("apology: unknown promise")
	// ErrAlreadySettled is returned when a promise has already been kept or
	// broken.
	ErrAlreadySettled = errors.New("apology: promise already settled")
	// ErrPromiseLimit is returned when a promise is refused because its
	// entity already carries the maximum number of pending promises: every
	// pending promise is a potential apology, and a business caps how many
	// it owes on one entity.
	ErrPromiseLimit = errors.New("apology: promise limit reached")
)

// Promise is a tentative business commitment to a partner.
type Promise struct {
	// ID is the id of the transaction that made the promise (TxnID).
	ID      string
	Kind    string // e.g. "order-confirmation", "available-to-purchase"
	Entity  entity.Key
	TxnID   string
	Partner string // who the promise was made to
	// Quantity is the promised amount for capacity-style promises (books,
	// inventory, seats); zero for non-quantitative promises.
	Quantity float64
	Made     time.Time
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

// ResolveOverbooking splits the pending promises on one entity, in the order
// they were made, into those the available quantity honours
// first-come-first-served and the rest, to be broken; zero quantity counts
// as one. It is principle 2.9's bookstore (5 copies, more than 5 sold).
func ResolveOverbooking(pending []Promise, available float64) (keep, brk []Promise) {
	for _, p := range pending {
		need := p.Quantity
		if need <= 0 {
			need = 1
		}
		if need <= available {
			available -= need
			keep = append(keep, p)
		} else {
			brk = append(brk, p)
		}
	}
	return keep, brk
}
