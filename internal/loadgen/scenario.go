package loadgen

import (
	"fmt"
	"strings"

	"repro/internal/workload"
)

// Class is the operation class a request is scored under. The scoreboard
// keeps separate percentile rows per class because their service times have
// no business being averaged together: a submit pays the commit path, a
// read is a cache hit, a query walks history.
type Class int

const (
	// Submit is a write: POST /entities (operation application through
	// admission control and the commit path).
	Submit Class = iota
	// Read is a point read: GET /entities.
	Read
	// Query walks derived or historical data: GET /history.
	Query
)

// String names the class.
func (c Class) String() string {
	switch c {
	case Submit:
		return "submit"
	case Read:
		return "read"
	default:
		return "query"
	}
}

// Request is one generated HTTP request against soupsd's surface.
type Request struct {
	Scenario string
	Class    Class
	Method   string
	Path     string
	Body     string // empty for GETs
}

// Scenario generates the request stream of one business workload. Request
// must be a pure function of the index: scenarios hold no per-entity state,
// which is what lets a run stride over millions of simulated entities.
type Scenario interface {
	Name() string
	// Request builds the i-th request of this scenario's stream.
	Request(i uint64) Request
}

// Scenarios instantiates the named scenario set over an entity key space of
// the given size. Names match internal/workload's business scenarios: crm,
// banking, inventory, bookstore.
func Scenarios(names string, entities uint64, seed uint64) ([]Scenario, error) {
	if entities == 0 {
		entities = 1
	}
	var out []Scenario
	for _, name := range strings.Split(names, ",") {
		switch strings.TrimSpace(strings.ToLower(name)) {
		case "":
		case "crm":
			out = append(out, &crmScenario{entities: entities, seed: seed})
		case "banking":
			out = append(out, &bankingScenario{entities: entities, seed: seed})
		case "inventory":
			// Inventory key spaces are warehouses, not users: cap the
			// item count so the Zipf-style hot spot stays meaningful.
			items := entities / 100
			if items < 16 {
				items = 16
			}
			out = append(out, &inventoryScenario{items: items, seed: seed})
		case "bookstore":
			out = append(out, &bookstoreScenario{seed: seed})
		default:
			return nil, fmt.Errorf("loadgen: unknown scenario %q (want crm, banking, inventory, bookstore)", name)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("loadgen: no scenarios in %q", names)
	}
	return out, nil
}

// classFor picks the operation class from a stateless hash: submitRatio of
// requests write, readRatio read, the remainder query history.
func classFor(r uint64, submitPct, readPct uint64) Class {
	switch v := r % 100; {
	case v < submitPct:
		return Submit
	case v < submitPct+readPct:
		return Read
	default:
		return Query
	}
}

// readIndex maps request i onto an earlier index whose key has probably
// been written already, so point reads hit live entities instead of 404s.
func readIndex(r, i uint64) uint64 {
	if i == 0 {
		return 0
	}
	window := i
	if window > 4096 {
		window = 4096
	}
	return i - 1 - (r/100)%window
}

// --- Banking: deposits and withdrawals over a strided account space -------

type bankingScenario struct {
	entities uint64
	seed     uint64
}

func (s *bankingScenario) Name() string { return "banking" }

func (s *bankingScenario) account(i uint64) string {
	return fmt.Sprintf("bank-%d", workload.Stride(i, s.entities))
}

func (s *bankingScenario) Request(i uint64) Request {
	r := workload.Mix(s.seed^0xb4, i)
	switch classFor(r, 70, 25) {
	case Read:
		return Request{Scenario: "banking", Class: Read, Method: "GET",
			Path: "/entities/Account/" + s.account(readIndex(r, i))}
	case Query:
		return Request{Scenario: "banking", Class: Query, Method: "GET",
			Path: "/history/Account/" + s.account(readIndex(r, i))}
	default:
		amount := float64(1 + r%500)
		if r%5 == 0 { // ~20% withdrawals (principle 2.8: record the operation)
			amount = -amount
		}
		return Request{Scenario: "banking", Class: Submit, Method: "POST",
			Path: "/entities/Account/" + s.account(i),
			Body: fmt.Sprintf(`{"delta":{"balance":%g},"describe":"banking op %d"}`, amount, i)}
	}
}

// --- CRM: the lead → opportunity → order lifecycle ------------------------

type crmScenario struct {
	entities uint64
	seed     uint64
}

func (s *crmScenario) Name() string { return "crm" }

func (s *crmScenario) Request(i uint64) Request {
	r := workload.Mix(s.seed^0xc3, i)
	cls := classFor(r, 75, 20)
	caseOf := func(j uint64) uint64 { return workload.Stride(j/3, s.entities) }
	if cls == Read {
		j := readIndex(r, i)
		return Request{Scenario: "crm", Class: Read, Method: "GET",
			Path: fmt.Sprintf("/entities/Lead/L-%d", caseOf(j))}
	}
	if cls == Query {
		j := readIndex(r, i)
		return Request{Scenario: "crm", Class: Query, Method: "GET",
			Path: fmt.Sprintf("/history/Lead/L-%d", caseOf(j))}
	}
	// Submits cycle lead → opportunity → order per business case. A slice
	// of cases references a customer that is never entered (out-of-order
	// entry, principle 2.2) — the kernel accepts it as a managed warning.
	id := caseOf(i)
	switch i % 3 {
	case 0:
		return Request{Scenario: "crm", Class: Submit, Method: "POST",
			Path: fmt.Sprintf("/entities/Lead/L-%d", id),
			Body: fmt.Sprintf(`{"set":{"contact":"contact-%d","company":"company-%d","status":"NEW"}}`, id, r%97)}
	case 1:
		return Request{Scenario: "crm", Class: Submit, Method: "POST",
			Path: fmt.Sprintf("/entities/Opportunity/OP-%d", id),
			Body: fmt.Sprintf(`{"set":{"customer":"Customer/C-%d","value":%d,"status":"QUALIFIED"}}`, id, 100+r%10000)}
	default:
		return Request{Scenario: "crm", Class: Submit, Method: "POST",
			Path: fmt.Sprintf("/entities/Order/O-%d", id),
			Body: fmt.Sprintf(`{"set":{"customer":"Customer/C-%d","status":"OPEN","total":%d}}`, id, 5+r%500)}
	}
}

// --- Inventory: receipts and pickings over a hot item set -----------------

type inventoryScenario struct {
	items uint64
	seed  uint64
}

func (s *inventoryScenario) Name() string { return "inventory" }

func (s *inventoryScenario) item(r uint64) string {
	// A crude Zipf-ish skew without generator state: half the traffic lands
	// on the 1/16th hottest items, matching the packer scenario's hot spot.
	space := s.items
	if r%2 == 0 {
		space = s.items / 16
		if space == 0 {
			space = 1
		}
	}
	return fmt.Sprintf("item-%d", workload.Stride(r, space))
}

func (s *inventoryScenario) Request(i uint64) Request {
	r := workload.Mix(s.seed^0x17, i)
	switch classFor(r, 80, 15) {
	case Read:
		return Request{Scenario: "inventory", Class: Read, Method: "GET",
			Path: "/entities/Inventory/" + s.item(workload.Mix(r, 1))}
	case Query:
		return Request{Scenario: "inventory", Class: Query, Method: "GET",
			Path: "/history/Inventory/" + s.item(workload.Mix(r, 1))}
	default:
		qty := int64(1 + r%10)
		if r%10 < 6 { // sustained pick ratio > 0.5 drives items negative (principle 2.1)
			qty = -qty
		}
		return Request{Scenario: "inventory", Class: Submit, Method: "POST",
			Path: "/entities/Inventory/" + s.item(workload.Mix(r, 2)),
			Body: fmt.Sprintf(`{"delta":{"onhand":%d},"describe":"moved %d"}`, qty, qty)}
	}
}

// --- Bookstore: the overbooked bestseller ---------------------------------

type bookstoreScenario struct {
	seed uint64
}

func (s *bookstoreScenario) Name() string { return "bookstore" }

func (s *bookstoreScenario) Request(i uint64) Request {
	r := workload.Mix(s.seed^0xb0, i)
	switch classFor(r, 60, 35) {
	case Read:
		return Request{Scenario: "bookstore", Class: Read, Method: "GET",
			Path: "/entities/Book/bestseller"}
	case Query:
		return Request{Scenario: "bookstore", Class: Query, Method: "GET",
			Path: "/history/Book/bestseller"}
	default:
		// One hot entity taking every order serialises on a single lane by
		// contract — the harness's pure contention probe. Periodic restocks
		// keep the overbooking scenario alive instead of diverging.
		if i%64 == 0 {
			return Request{Scenario: "bookstore", Class: Submit, Method: "POST",
				Path: "/entities/Book/bestseller",
				Body: `{"delta":{"stock":64},"describe":"restock"}`}
		}
		return Request{Scenario: "bookstore", Class: Submit, Method: "POST",
			Path: "/entities/Book/bestseller",
			Body: fmt.Sprintf(`{"delta":{"stock":-1},"describe":"order by customer-%d"}`, r%100000)}
	}
}
