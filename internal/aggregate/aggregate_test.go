package aggregate

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/entity"
	"repro/internal/lsdb"
)

func invoiceType() *entity.Type {
	return &entity.Type{
		Name: "Invoice",
		Fields: []entity.Field{
			{Name: "customer", Type: entity.String},
			{Name: "amount", Type: entity.Float},
			{Name: "status", Type: entity.String},
		},
	}
}

func newDB(t *testing.T) *lsdb.DB {
	t.Helper()
	db := lsdb.Open(lsdb.Options{Node: "u1", SnapshotEvery: 16, Validation: entity.Managed})
	if err := db.RegisterType(invoiceType()); err != nil {
		t.Fatal(err)
	}
	return db
}

// newMaintainer returns a maintainer over a fresh store whose commit sink
// is the maintainer's capture, as core wires every unit.
func newMaintainer(t *testing.T) (*lsdb.DB, *Maintainer) {
	t.Helper()
	db := newDB(t)
	m := NewMaintainer(db)
	db.SetCommitSink(func(records []lsdb.Record) func() error {
		m.Capture(records)
		return nil
	})
	return db, m
}

func stamp(n int64) clock.Timestamp { return clock.Timestamp{WallNanos: n, Node: "u1"} }

func inv(id string) entity.Key { return entity.Key{Type: "Invoice", ID: id} }

func TestSumAggregateGlobal(t *testing.T) {
	db, m := newMaintainer(t)
	m.DefineSum("revenue", "Invoice", "amount", "")
	db.Append(inv("I1"), []entity.Op{entity.Set("amount", 100.0)}, stamp(1), "u1", "")
	db.Append(inv("I2"), []entity.Op{entity.Set("amount", 50.0)}, stamp(2), "u1", "")
	// Deferred: nothing visible until CatchUp.
	if v, _ := m.Sum("revenue", ""); v != 0 {
		t.Fatalf("deferred aggregate updated early: %v", v)
	}
	if pending := m.Staleness(); pending != 2 {
		t.Fatalf("pending = %d", pending)
	}
	if n := m.CatchUp(); n != 2 {
		t.Fatalf("CatchUp = %d", n)
	}
	if v, _ := m.Sum("revenue", ""); v != 150 {
		t.Fatalf("revenue = %v, want 150", v)
	}
	if pending := m.Staleness(); pending != 0 {
		t.Fatalf("pending after catch-up = %d", pending)
	}
}

func TestSumAggregateHandlesSetAndDelta(t *testing.T) {
	db, m := newMaintainer(t)
	m.DefineSum("revenue", "Invoice", "amount", "")
	db.Append(inv("I1"), []entity.Op{entity.Set("amount", 100.0)}, stamp(1), "u1", "")
	m.CatchUp()
	// Register overwrite: the aggregate must reflect the new value, not the
	// sum of old and new.
	db.Append(inv("I1"), []entity.Op{entity.Set("amount", 40.0)}, stamp(2), "u1", "")
	m.CatchUp()
	if v, _ := m.Sum("revenue", ""); v != 40 {
		t.Fatalf("revenue after overwrite = %v, want 40", v)
	}
	// Commutative delta adds on top.
	db.Append(inv("I1"), []entity.Op{entity.Delta("amount", 5)}, stamp(3), "u1", "")
	m.CatchUp()
	if v, _ := m.Sum("revenue", ""); v != 45 {
		t.Fatalf("revenue after delta = %v, want 45", v)
	}
}

func TestSumAggregateGroupedAndRegrouping(t *testing.T) {
	db, m := newMaintainer(t)
	m.DefineSum("by-customer", "Invoice", "amount", "customer")
	db.Append(inv("I1"), []entity.Op{entity.Set("customer", "acme"), entity.Set("amount", 100.0)}, stamp(1), "u1", "")
	db.Append(inv("I2"), []entity.Op{entity.Set("customer", "globex"), entity.Set("amount", 10.0)}, stamp(2), "u1", "")
	m.CatchUp()
	if v, _ := m.Sum("by-customer", "acme"); v != 100 {
		t.Fatalf("acme = %v", v)
	}
	if v, _ := m.Sum("by-customer", "globex"); v != 10 {
		t.Fatalf("globex = %v", v)
	}
	// Reassign I1 to globex: totals must move.
	db.Append(inv("I1"), []entity.Op{entity.Set("customer", "globex")}, stamp(3), "u1", "")
	m.CatchUp()
	if v, _ := m.Sum("by-customer", "acme"); v != 0 {
		t.Fatalf("acme after regroup = %v", v)
	}
	if v, _ := m.Sum("by-customer", "globex"); v != 110 {
		t.Fatalf("globex after regroup = %v", v)
	}
}

func TestSumAggregateDeletedEntity(t *testing.T) {
	db, m := newMaintainer(t)
	m.DefineSum("revenue", "Invoice", "amount", "")
	db.Append(inv("I1"), []entity.Op{entity.Set("amount", 100.0)}, stamp(1), "u1", "")
	m.CatchUp()
	db.Append(inv("I1"), []entity.Op{entity.Delete()}, stamp(2), "u1", "")
	m.CatchUp()
	if v, _ := m.Sum("revenue", ""); v != 0 {
		t.Fatalf("revenue after delete = %v", v)
	}
}

func TestCountAggregate(t *testing.T) {
	db, m := newMaintainer(t)
	m.DefineCount("open-invoices", "Invoice", "status")
	db.Append(inv("I1"), []entity.Op{entity.Set("status", "OPEN")}, stamp(1), "u1", "")
	db.Append(inv("I2"), []entity.Op{entity.Set("status", "OPEN")}, stamp(2), "u1", "")
	db.Append(inv("I3"), []entity.Op{entity.Set("status", "PAID")}, stamp(3), "u1", "")
	m.CatchUp()
	if n, _ := m.Count("open-invoices", "OPEN"); n != 2 {
		t.Fatalf("OPEN = %d", n)
	}
	if n, _ := m.Count("open-invoices", "PAID"); n != 1 {
		t.Fatalf("PAID = %d", n)
	}
	// Status change moves the entity between groups.
	db.Append(inv("I1"), []entity.Op{entity.Set("status", "PAID")}, stamp(4), "u1", "")
	m.CatchUp()
	if n, _ := m.Count("open-invoices", "OPEN"); n != 1 {
		t.Fatalf("OPEN after change = %d", n)
	}
	if n, _ := m.Count("open-invoices", "PAID"); n != 2 {
		t.Fatalf("PAID after change = %d", n)
	}
	// Deleting removes it from its group.
	db.Append(inv("I1"), []entity.Op{entity.Delete()}, stamp(5), "u1", "")
	m.CatchUp()
	if n, _ := m.Count("open-invoices", "PAID"); n != 1 {
		t.Fatalf("PAID after delete = %d", n)
	}
}

func TestSecondaryIndex(t *testing.T) {
	db, m := newMaintainer(t)
	m.DefineIndex("by-status", "Invoice", "status")
	db.Append(inv("I1"), []entity.Op{entity.Set("status", "OPEN")}, stamp(1), "u1", "")
	db.Append(inv("I2"), []entity.Op{entity.Set("status", "OPEN")}, stamp(2), "u1", "")
	m.CatchUp()
	ids, err := m.Lookup("by-status", "OPEN")
	if err != nil || len(ids) != 2 || ids[0] != "I1" || ids[1] != "I2" {
		t.Fatalf("Lookup = %v, %v", ids, err)
	}
	// The paper/Helland point: the index is allowed to be stale. A new
	// invoice is not findable until the maintainer catches up.
	db.Append(inv("I3"), []entity.Op{entity.Set("status", "OPEN")}, stamp(3), "u1", "")
	ids, _ = m.Lookup("by-status", "OPEN")
	if len(ids) != 2 {
		t.Fatalf("index updated synchronously in deferred mode: %v", ids)
	}
	m.CatchUp()
	ids, _ = m.Lookup("by-status", "OPEN")
	if len(ids) != 3 {
		t.Fatalf("index missing entity after catch-up: %v", ids)
	}
	// Value change moves the id between index entries.
	db.Append(inv("I1"), []entity.Op{entity.Set("status", "PAID")}, stamp(4), "u1", "")
	m.CatchUp()
	open, _ := m.Lookup("by-status", "OPEN")
	paid, _ := m.Lookup("by-status", "PAID")
	if len(open) != 2 || len(paid) != 1 || paid[0] != "I1" {
		t.Fatalf("open=%v paid=%v", open, paid)
	}
	// Delete removes from the index.
	db.Append(inv("I1"), []entity.Op{entity.Delete()}, stamp(5), "u1", "")
	m.CatchUp()
	paid, _ = m.Lookup("by-status", "PAID")
	if len(paid) != 0 {
		t.Fatalf("paid after delete = %v", paid)
	}
}

func TestUnknownDefinitions(t *testing.T) {
	_, m := newMaintainer(t)
	if _, err := m.Sum("nope", ""); !errors.Is(err, ErrUnknownDefinition) {
		t.Fatal("Sum should fail")
	}
	if _, err := m.Count("nope", ""); !errors.Is(err, ErrUnknownDefinition) {
		t.Fatal("Count should fail")
	}
	if _, err := m.Lookup("nope", 1); !errors.Is(err, ErrUnknownDefinition) {
		t.Fatal("Lookup should fail")
	}
}

func TestConcurrentWritersAndCatchUp(t *testing.T) {
	db, m := newMaintainer(t)
	m.DefineSum("revenue", "Invoice", "amount", "")
	const writers, per = 4, 50
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				m.CatchUp()
				time.Sleep(time.Millisecond)
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				key := inv(fmt.Sprintf("W%d-%d", w, i))
				db.Append(key, []entity.Op{entity.Set("amount", 1.0)}, stamp(int64(w*per+i+1)), "u1", "")
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	m.CatchUp()
	if v, _ := m.Sum("revenue", ""); v != writers*per {
		t.Fatalf("revenue = %v, want %d", v, writers*per)
	}
}

func TestStalenessNeverNegative(t *testing.T) {
	_, m := newMaintainer(t)
	if pending := m.Staleness(); pending != 0 {
		t.Fatalf("empty staleness = %d", pending)
	}
}

// A break settlement reaches the maintainer like any append: the withdrawn
// contribution leaves, and a withdrawn first write (no live state left)
// folds as removal.
func TestMarkWithdrawsContribution(t *testing.T) {
	db, m := newMaintainer(t)
	m.DefineSum("revenue", "Invoice", "amount", "")
	m.DefineCount("invoices", "Invoice", "")
	db.Append(inv("I1"), []entity.Op{entity.Set("amount", 100.0)}, stamp(1), "u1", "t1")
	db.AppendPromise(inv("I1"), []entity.Op{entity.Delta("amount", 7)}, stamp(2), "u1", "t2", 0)
	db.AppendPromise(inv("I2"), []entity.Op{entity.Set("amount", 50.0)}, stamp(3), "u1", "t3", 0)
	m.CatchUp()
	if v, _ := m.Sum("revenue", ""); v != 157 {
		t.Fatalf("with both promises pending: revenue = %v, want 157", v)
	}
	if _, err := db.Append(inv("I1"), []entity.Op{entity.BreakPromise("t2", "", "")}, stamp(4), "u1", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Append(inv("I2"), []entity.Op{entity.BreakPromise("t3", "", "")}, stamp(5), "u1", ""); err != nil {
		t.Fatal(err)
	}
	if pending := m.Staleness(); pending != 2 {
		t.Fatalf("marks pending = %d, want 2", pending)
	}
	m.CatchUp()
	if v, _ := m.Sum("revenue", ""); v != 100 {
		t.Fatalf("after both withdrawals: revenue = %v, want 100", v)
	}
	var live int
	db.Scan("Invoice", func(st *entity.State) bool {
		if !st.Deleted {
			live++
		}
		return true
	})
	if n, _ := m.Count("invoices", ""); n != live {
		t.Fatalf("count = %d, a scan sees %d live invoices", n, live)
	}
}

// A definition made after the writes, or after a compaction, folds every
// existing entity of its type; a compaction, which reaches no commit sink,
// leaves no pending work.
func TestLateDefinitionAndCompaction(t *testing.T) {
	db, m := newMaintainer(t)
	db.Append(inv("I1"), []entity.Op{entity.Set("customer", "acme"), entity.Set("amount", 30.0)}, stamp(1), "u1", "")
	db.Append(inv("I2"), []entity.Op{entity.Set("customer", "acme"), entity.Set("amount", 12.0)}, stamp(2), "u1", "")
	db.Compact(db.HeadLSN())
	m.DefineSum("by-customer", "Invoice", "amount", "customer")
	if pending := m.Staleness(); pending != 2 {
		t.Fatalf("seeded pending = %d, want 2", pending)
	}
	m.CatchUp()
	db.Compact(db.HeadLSN())
	if pending := m.Staleness(); pending != 0 {
		t.Fatalf("a compaction left %d pending", pending)
	}
	if v, _ := m.Sum("by-customer", "acme"); v != 42 {
		t.Fatalf("acme = %v, want 42", v)
	}
}
