package workload

import (
	"testing"

	"repro/internal/entity"
)

func TestTypesAreValid(t *testing.T) {
	types := Types()
	if len(types) != 8 {
		t.Fatalf("Types = %d", len(types))
	}
	seen := map[string]bool{}
	for _, typ := range types {
		if err := typ.Validate(); err != nil {
			t.Errorf("type %s invalid: %v", typ.Name, err)
		}
		if seen[typ.Name] {
			t.Errorf("duplicate type %s", typ.Name)
		}
		seen[typ.Name] = true
	}
}

func TestZipfSkewsTowardsLowKeys(t *testing.T) {
	z := NewZipf(1, 100, 1.3)
	counts := make([]int, 100)
	const draws = 20000
	for i := 0; i < draws; i++ {
		k := z.Next()
		if k < 0 || k >= 100 {
			t.Fatalf("key %d out of range", k)
		}
		counts[k]++
	}
	if z.N() != 100 {
		t.Fatalf("N = %d", z.N())
	}
	// The hottest key must be dramatically hotter than a mid-range key.
	if counts[0] < 10*counts[50]+1 {
		t.Fatalf("no skew: counts[0]=%d counts[50]=%d", counts[0], counts[50])
	}
}

func TestZipfClampsLowSkew(t *testing.T) {
	z := NewZipf(1, 10, 0.5) // invalid s clamps to >1
	for i := 0; i < 100; i++ {
		if k := z.Next(); k < 0 || k >= 10 {
			t.Fatalf("key %d out of range", k)
		}
	}
}

func TestOrderToCashCases(t *testing.T) {
	g := NewOrderToCash(7, 0.5)
	forward, total := 0, 0
	for i := 0; i < 200; i++ {
		events := g.NextCase()
		if len(events) != 3 {
			t.Fatalf("case has %d events", len(events))
		}
		if events[0].Kind != "lead" || events[1].Kind != "opportunity" || events[2].Kind != "order" {
			t.Fatalf("unexpected kinds: %v %v %v", events[0].Kind, events[1].Kind, events[2].Kind)
		}
		if events[1].ForwardReference != events[2].ForwardReference {
			t.Fatal("opportunity and order must agree on forward reference")
		}
		if events[1].ForwardReference {
			forward++
		}
		total++
		// Order ops include the line items.
		if len(events[2].Ops) != 2+g.lineItemsPerOrder {
			t.Fatalf("order ops = %d", len(events[2].Ops))
		}
		// Keys are unique across cases.
		if events[2].Key.ID == "" || events[0].Key.Type != "Lead" {
			t.Fatal("bad keys")
		}
	}
	ratio := float64(forward) / float64(total)
	if ratio < 0.3 || ratio > 0.7 {
		t.Fatalf("forward-reference ratio %.2f far from configured 0.5", ratio)
	}
}

func TestOrderToCashZeroRatio(t *testing.T) {
	g := NewOrderToCash(7, 0)
	for i := 0; i < 50; i++ {
		events := g.NextCase()
		if events[1].ForwardReference {
			t.Fatal("forward reference generated at ratio 0")
		}
	}
}

func TestInventoryGenerator(t *testing.T) {
	g := NewInventory(3, 20, 1.2, 0.7)
	picks, receipts := 0, 0
	for i := 0; i < 500; i++ {
		m := g.Next()
		if m.Item.Type != "Inventory" {
			t.Fatalf("item type %s", m.Item.Type)
		}
		if m.Qty == 0 {
			t.Fatal("zero quantity move")
		}
		if m.Qty < 0 {
			picks++
		} else {
			receipts++
		}
		ops := m.Ops()
		if len(ops) != 1 || ops[0].Kind != entity.OpDelta || ops[0].Describe == "" {
			t.Fatalf("ops = %+v", ops)
		}
	}
	if picks <= receipts {
		t.Fatalf("pick ratio 0.7 but picks=%d receipts=%d", picks, receipts)
	}
}

func TestBankingGenerator(t *testing.T) {
	g := NewBanking(5, 50, 1.2)
	deposits, withdrawals := 0, 0
	seenEntries := map[string]bool{}
	for i := 0; i < 500; i++ {
		op := g.Next()
		if op.Amount == 0 {
			t.Fatal("zero amount")
		}
		if op.Amount > 0 {
			deposits++
		} else {
			withdrawals++
		}
		if seenEntries[op.EntryID] {
			t.Fatalf("duplicate entry id %s", op.EntryID)
		}
		seenEntries[op.EntryID] = true
		ops := op.Ops()
		if len(ops) != 2 {
			t.Fatalf("ops = %d", len(ops))
		}
		if ops[0].Kind != entity.OpInsertChild || ops[1].Kind != entity.OpDelta {
			t.Fatalf("op kinds = %v %v", ops[0].Kind, ops[1].Kind)
		}
		kind := ops[0].ChildRow["kind"]
		if op.Amount < 0 && kind != "withdrawal" {
			t.Fatalf("withdrawal labelled %v", kind)
		}
	}
	if deposits == 0 || withdrawals == 0 {
		t.Fatalf("mix degenerate: %d/%d", deposits, withdrawals)
	}
}

func TestBookstoreOrders(t *testing.T) {
	b := NewBookstore(5, 8)
	orders := b.Orders()
	if len(orders) != 8 {
		t.Fatalf("orders = %d", len(orders))
	}
	for i, o := range orders {
		if o.Book != b.Title || o.Qty != 1 {
			t.Fatalf("order %d = %+v", i, o)
		}
	}
	if b.Stock != 5 {
		t.Fatalf("stock = %d", b.Stock)
	}
}

func TestTransfersCrossRatio(t *testing.T) {
	g := NewTransfers(11, 100, 0.3)
	cross, total := 0, 0
	for i := 0; i < 1000; i++ {
		tr := g.Next()
		if tr.From.Type != "Account" || tr.To.Type != "Account" {
			t.Fatal("bad key types")
		}
		if tr.Amount <= 0 {
			t.Fatal("non-positive amount")
		}
		if tr.crossUnit {
			cross++
			// Cross transfers pair the lower half with the upper half.
			if tr.From.ID >= "account-0050" {
				t.Fatalf("cross transfer from upper half: %+v", tr)
			}
			if tr.To.ID < "account-0050" {
				t.Fatalf("cross transfer to lower half: %+v", tr)
			}
		}
		total++
	}
	ratio := float64(cross) / float64(total)
	if ratio < 0.2 || ratio > 0.4 {
		t.Fatalf("cross ratio %.2f far from 0.3", ratio)
	}
}

func TestTransfersZeroAndFullCross(t *testing.T) {
	none := NewTransfers(1, 10, 0)
	for i := 0; i < 50; i++ {
		if none.Next().crossUnit {
			t.Fatal("cross transfer at ratio 0")
		}
	}
	all := NewTransfers(1, 10, 1)
	for i := 0; i < 50; i++ {
		if !all.Next().crossUnit {
			t.Fatal("local transfer at ratio 1")
		}
	}
}

func TestDeterministicWithSameSeed(t *testing.T) {
	a, b := NewBanking(42, 10, 1.2), NewBanking(42, 10, 1.2)
	for i := 0; i < 100; i++ {
		x, y := a.Next(), b.Next()
		if x.Account != y.Account || x.Amount != y.Amount {
			t.Fatalf("non-deterministic at %d: %+v vs %+v", i, x, y)
		}
	}
}
