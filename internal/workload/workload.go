// Package workload generates the synthetic business workloads the benchmark
// harness drives through the kernel. The scenarios are shaped after the
// paper's own running examples: the CRM-to-ERP data lifecycle of principle
// 2.2 (leads become opportunities become orders), the negative-inventory
// packer of principle 2.1, banking deposits and withdrawals of principle 2.8,
// the supply-chain available-to-purchase offers and the overbooked bookstore
// of principle 2.9. Since SAP's real traces are proprietary, these generators
// are the documented substitution (DESIGN.md, substitution 2).
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/entity"
)

// Zipf draws keys 0..n-1 with a Zipfian skew; s close to 1 is mild skew,
// larger is hotter. It is the standard contention knob for experiments E1,
// E3 and E11.
type Zipf struct {
	z *rand.Zipf
	n int
}

// NewZipf creates a Zipf sampler over n keys with skew parameter s (>1).
func NewZipf(seed int64, n int, s float64) *Zipf {
	if s <= 1 {
		s = 1.01
	}
	r := rand.New(rand.NewSource(seed))
	return &Zipf{z: rand.NewZipf(r, s, 1, uint64(n-1)), n: n}
}

// Next returns the next key index in [0, n).
func (z *Zipf) Next() int { return int(z.z.Uint64()) }

// N returns the keyspace size.
func (z *Zipf) N() int { return z.n }

// --- Entity type declarations shared by examples and benchmarks -----------

// Types returns the standard entity types of the business scenarios.
func Types() []*entity.Type {
	return []*entity.Type{
		customerType(), leadType(), opportunityType(), OrderType(), inventoryType(),
		AccountType(), bookType(), offerType(),
	}
}

// customerType is the master-data entity that opportunities and orders
// reference; in the out-of-order scenario it often arrives after them.
func customerType() *entity.Type {
	return &entity.Type{Name: "Customer", Fields: []entity.Field{
		{Name: "name", Type: entity.String},
		{Name: "country", Type: entity.String},
	}}
}

// leadType is the CRM lead (front-end, early-lifecycle, often incomplete).
func leadType() *entity.Type {
	return &entity.Type{Name: "Lead", Fields: []entity.Field{
		{Name: "contact", Type: entity.String},
		{Name: "company", Type: entity.String},
		{Name: "status", Type: entity.String},
	}}
}

// opportunityType is a qualified lead; it references a customer that may not
// exist yet (principle 2.2).
func opportunityType() *entity.Type {
	return &entity.Type{Name: "Opportunity", Fields: []entity.Field{
		{Name: "customer", Type: entity.Reference, RefType: "Customer"},
		{Name: "value", Type: entity.Float},
		{Name: "status", Type: entity.String},
	}}
}

// OrderType is the hierarchical order entity (root plus line items).
func OrderType() *entity.Type {
	return &entity.Type{
		Name: "Order",
		Fields: []entity.Field{
			{Name: "customer", Type: entity.Reference, RefType: "Customer"},
			{Name: "status", Type: entity.String},
			{Name: "total", Type: entity.Float},
		},
		Children: []entity.ChildCollection{{
			Name: "lineitems",
			Fields: []entity.Field{
				{Name: "product", Type: entity.String},
				{Name: "qty", Type: entity.Int},
				{Name: "price", Type: entity.Float},
			},
		}},
	}
}

// inventoryType is per-product stock; onhand may go negative (principle 2.1).
func inventoryType() *entity.Type {
	return &entity.Type{Name: "Inventory", Fields: []entity.Field{
		{Name: "onhand", Type: entity.Int},
		{Name: "plant", Type: entity.String},
	}}
}

// AccountType is the insert-only bank account of principle 2.8: balance is
// an aggregate of deposits and withdrawals.
func AccountType() *entity.Type {
	return &entity.Type{
		Name: "Account",
		Fields: []entity.Field{
			{Name: "owner", Type: entity.String},
			{Name: "balance", Type: entity.Float},
		},
		Children: []entity.ChildCollection{{
			Name: "entries",
			Fields: []entity.Field{
				{Name: "kind", Type: entity.String},
				{Name: "amount", Type: entity.Float},
			},
		}},
	}
}

// bookType is the overbookable bestseller of principle 2.9.
func bookType() *entity.Type {
	return &entity.Type{Name: "Book", Fields: []entity.Field{
		{Name: "title", Type: entity.String},
		{Name: "stock", Type: entity.Int},
	}}
}

// offerType is a supply-chain available-to-purchase offer.
func offerType() *entity.Type {
	return &entity.Type{Name: "Offer", Fields: []entity.Field{
		{Name: "product", Type: entity.String},
		{Name: "qty", Type: entity.Int},
		{Name: "price", Type: entity.Float},
		{Name: "status", Type: entity.String},
	}}
}

// --- Order-to-cash pipeline ------------------------------------------------

// PipelineEvent is one front-end data entry in the CRM→ERP lifecycle.
type PipelineEvent struct {
	Kind string // "lead", "opportunity", "order"
	Key  entity.Key
	Ops  []entity.Op
	// ForwardReference is true when the entry references an entity that has
	// not been entered yet (out-of-order, principle 2.2).
	ForwardReference bool
}

// OrderToCash generates the lead → opportunity → order lifecycle with a
// configurable fraction of out-of-order entries.
type OrderToCash struct {
	rng               *rand.Rand
	nextID            int
	outOfOrderRatio   float64 // probability an opportunity precedes its customer
	lineItemsPerOrder int
}

// NewOrderToCash creates a generator.
func NewOrderToCash(seed int64, outOfOrderRatio float64) *OrderToCash {
	return &OrderToCash{rng: rand.New(rand.NewSource(seed)), outOfOrderRatio: outOfOrderRatio, lineItemsPerOrder: 3}
}

// NextCase produces the three entries of one business case (lead,
// opportunity, order) in entry order; when the case is out of order the
// opportunity and order reference a customer entity that is never entered.
func (g *OrderToCash) NextCase() []PipelineEvent {
	g.nextID++
	id := g.nextID
	forward := g.rng.Float64() < g.outOfOrderRatio
	customer := fmt.Sprintf("Customer/C-%05d", id)
	lead := PipelineEvent{
		Kind: "lead",
		Key:  entity.Key{Type: "Lead", ID: fmt.Sprintf("L-%05d", id)},
		Ops: []entity.Op{
			entity.Set("contact", fmt.Sprintf("contact-%d", id)),
			entity.Set("company", fmt.Sprintf("company-%d", id%97)),
			entity.Set("status", "NEW"),
		},
	}
	opp := PipelineEvent{
		Kind:             "opportunity",
		Key:              entity.Key{Type: "Opportunity", ID: fmt.Sprintf("OP-%05d", id)},
		ForwardReference: forward,
		Ops: []entity.Op{
			entity.Set("customer", customer),
			entity.Set("value", float64(100+g.rng.Intn(10000))),
			entity.Set("status", "QUALIFIED"),
		},
	}
	order := PipelineEvent{
		Kind:             "order",
		Key:              entity.Key{Type: "Order", ID: fmt.Sprintf("O-%05d", id)},
		ForwardReference: forward,
		Ops: []entity.Op{
			entity.Set("customer", customer),
			entity.Set("status", "OPEN"),
		},
	}
	for li := 0; li < g.lineItemsPerOrder; li++ {
		order.Ops = append(order.Ops, entity.InsertChild("lineitems", fmt.Sprintf("L%d", li+1), entity.Fields{
			"product": fmt.Sprintf("product-%d", g.rng.Intn(50)),
			"qty":     int64(1 + g.rng.Intn(5)),
			"price":   float64(5 + g.rng.Intn(500)),
		}))
	}
	return []PipelineEvent{lead, opp, order}
}

// --- Inventory --------------------------------------------------------------

// InventoryMove is one goods receipt (positive) or picking (negative).
type InventoryMove struct {
	Item entity.Key
	Qty  int64
	desc string
}

// Inventory generates receipts and pickings over a fixed set of items with a
// Zipfian hot spot; pickRatio controls how often stock is consumed vs
// received, so sustained pickRatio > 0.5 drives items negative.
type Inventory struct {
	rng       *rand.Rand
	zipf      *Zipf
	pickRatio float64
}

// NewInventory creates a generator over items item-0..item-(n-1).
func NewInventory(seed int64, items int, skew, pickRatio float64) *Inventory {
	return &Inventory{rng: rand.New(rand.NewSource(seed)), zipf: NewZipf(seed+1, items, skew), pickRatio: pickRatio}
}

// Next returns the next stock movement.
func (g *Inventory) Next() InventoryMove {
	item := entity.Key{Type: "Inventory", ID: fmt.Sprintf("item-%d", g.zipf.Next())}
	qty := int64(1 + g.rng.Intn(10))
	if g.rng.Float64() < g.pickRatio {
		return InventoryMove{Item: item, Qty: -qty, desc: fmt.Sprintf("picked %d of %s", qty, item.ID)}
	}
	return InventoryMove{Item: item, Qty: qty, desc: fmt.Sprintf("received %d of %s", qty, item.ID)}
}

// Ops converts a move into entity operations (delta + history description).
func (m InventoryMove) Ops() []entity.Op {
	return []entity.Op{entity.Delta("onhand", float64(m.Qty)).Described(m.desc)}
}

// --- Banking ----------------------------------------------------------------

// BankOp is one deposit or withdrawal described as an operation (principle
// 2.8: record the withdrawal, not just the balance).
type BankOp struct {
	Account  entity.Key
	Amount   float64 // positive deposit, negative withdrawal
	EntryID  string
	Describe string
}

// Banking generates deposits and withdrawals over n accounts with Zipfian
// skew.
type Banking struct {
	rng  *rand.Rand
	zipf *Zipf
	seq  int
	// withdrawRatio is the probability a generated operation is a withdrawal.
	withdrawRatio float64
}

// NewBanking creates a generator over account-0..account-(n-1).
func NewBanking(seed int64, accounts int, skew float64) *Banking {
	return &Banking{rng: rand.New(rand.NewSource(seed)), zipf: NewZipf(seed+1, accounts, skew), withdrawRatio: 0.4}
}

// Next returns the next banking operation.
func (g *Banking) Next() BankOp {
	g.seq++
	acct := entity.Key{Type: "Account", ID: fmt.Sprintf("account-%d", g.zipf.Next())}
	amount := float64(1 + g.rng.Intn(500))
	kind := "deposit"
	if g.rng.Float64() < g.withdrawRatio {
		amount = -amount
		kind = "withdrawal"
	}
	return BankOp{
		Account:  acct,
		Amount:   amount,
		EntryID:  fmt.Sprintf("entry-%d", g.seq),
		Describe: fmt.Sprintf("%s of %.0f on %s", kind, amount, acct.ID),
	}
}

// Ops converts the banking operation into entity operations: an insert-only
// entry child row plus a commutative balance delta.
func (b BankOp) Ops() []entity.Op {
	kind := "deposit"
	if b.Amount < 0 {
		kind = "withdrawal"
	}
	return []entity.Op{
		entity.InsertChild("entries", b.EntryID, entity.Fields{"kind": kind, "amount": b.Amount}).Described(b.Describe),
		entity.Delta("balance", b.Amount),
	}
}

// --- Bookstore overbooking ---------------------------------------------------

// BookOrder is one customer's attempt to buy a copy.
type BookOrder struct {
	Customer string
	Book     entity.Key
	Qty      int64
}

// Bookstore generates demand D for a single title with stock S, the
// overbooking scenario of principle 2.9.
type Bookstore struct {
	Title  entity.Key
	Stock  int64
	demand int
	next   int
}

// NewBookstore creates the scenario.
func NewBookstore(stock int64, demand int) *Bookstore {
	return &Bookstore{Title: entity.Key{Type: "Book", ID: "bestseller"}, Stock: stock, demand: demand}
}

// Orders returns all customer orders (demand many, one copy each).
func (b *Bookstore) Orders() []BookOrder {
	out := make([]BookOrder, b.demand)
	for i := range out {
		out[i] = BookOrder{Customer: fmt.Sprintf("customer-%d", i), Book: b.Title, Qty: 1}
	}
	return out
}

// --- Cross-partition transfer mix -------------------------------------------

// Transfer is one employee-transfer-style operation touching a source and a
// destination entity, possibly in different serialization units.
type Transfer struct {
	From, To entity.Key
	Amount   float64
	// crossUnit is a hint set by the generator when From and To were chosen
	// from different key ranges; the actual placement is the locator's call.
	crossUnit bool
}

// Transfers generates transfers between n entities where crossRatio of them
// intentionally pair entities from different halves of the keyspace (so that
// a range-partitioned deployment makes them cross-unit).
type Transfers struct {
	rng        *rand.Rand
	n          int
	crossRatio float64
}

// NewTransfers creates a generator over n accounts.
func NewTransfers(seed int64, n int, crossRatio float64) *Transfers {
	return &Transfers{rng: rand.New(rand.NewSource(seed)), n: n, crossRatio: crossRatio}
}

// Next returns the next Transfer.
func (g *Transfers) Next() Transfer {
	half := g.n / 2
	if half == 0 {
		half = 1
	}
	cross := g.rng.Float64() < g.crossRatio
	from := g.rng.Intn(half)
	to := g.rng.Intn(half)
	if cross {
		to = half + g.rng.Intn(g.n-half)
	}
	key := func(i int) entity.Key {
		return entity.Key{Type: "Account", ID: fmt.Sprintf("account-%04d", i)}
	}
	return Transfer{From: key(from), To: key(to), Amount: float64(1 + g.rng.Intn(100)), crossUnit: cross}
}
