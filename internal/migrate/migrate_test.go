package migrate

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/entity"
	"repro/internal/lsdb"
	"repro/internal/txn"
)

func customerType() *entity.Type {
	return &entity.Type{
		Name: "Customer",
		Fields: []entity.Field{
			{Name: "name", Type: entity.String},
			{Name: "country", Type: entity.String},
		},
	}
}

// stack is one serialization unit with a schema registry over it.
type stack struct {
	reg *Registry
	db  *lsdb.DB
	mgr *txn.Manager
}

func newStack(t *testing.T) stack {
	t.Helper()
	reg := NewRegistry()
	if err := reg.Register(customerType()); err != nil {
		t.Fatal(err)
	}
	db := lsdb.Open(lsdb.Options{Node: "u1", SnapshotEvery: 16, Validation: entity.Managed})
	if err := db.RegisterType(customerType()); err != nil {
		t.Fatal(err)
	}
	return stack{reg: reg, db: db, mgr: txn.NewManager(db, nil, txn.Options{Node: "u1"})}
}

// apply migrates the stack the way Kernel.Migrate migrates a kernel: propose
// the new version, register it with the store, then backfill.
func (s stack) apply(mig Migration, batchSize int) (VersionedType, Progress, error) {
	vt, err := s.reg.Propose(mig)
	if err != nil {
		return VersionedType{}, Progress{}, err
	}
	if err := s.db.RegisterType(vt.Type); err != nil {
		return VersionedType{}, Progress{}, err
	}
	progress, err := Backfill(s.mgr, mig, batchSize)
	return vt, progress, err
}

func cust(id string) entity.Key { return entity.Key{Type: "Customer", ID: id} }

func seedCustomers(t *testing.T, mgr *txn.Manager, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		_, err := mgr.Run(nil, func(tx *txn.Txn) error {
			return tx.Update(cust(fmt.Sprintf("C%03d", i)),
				entity.Set("name", fmt.Sprintf("customer %d", i)),
				entity.Set("country", "DE"))
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestRegistryVersioning(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register(customerType()); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(customerType()); err == nil {
		t.Fatal("double registration accepted")
	}
	if err := reg.Register(&entity.Type{Name: ""}); err == nil {
		t.Fatal("invalid type accepted")
	}
	active, err := reg.Active("Customer")
	if err != nil || active.Version != 1 {
		t.Fatalf("Active = %+v %v", active, err)
	}
	if _, err := reg.Active("Nope"); !errors.Is(err, ErrUnknownType) {
		t.Fatal("Active of unknown type should fail")
	}
	if _, err := reg.Version("Customer", 9); !errors.Is(err, ErrNoSuchVersion) {
		t.Fatal("Version lookup should fail")
	}
	if len(reg.Types()) != 1 || reg.Types()[0] != "Customer" {
		t.Fatalf("Types = %v", reg.Types())
	}
}

func TestAdmissibilityRules(t *testing.T) {
	reg := NewRegistry()
	reg.Register(customerType())
	cases := []struct {
		name string
		mig  Migration
		ok   bool
	}{
		{"add optional field", Migration{Type: "Customer", AddFields: []entity.Field{{Name: "segment", Type: entity.String}}}, true},
		{"add required field without backfill", Migration{Type: "Customer", AddFields: []entity.Field{{Name: "tier", Type: entity.String, Required: true}}}, false},
		{"add required field with backfill", Migration{Type: "Customer", AddFields: []entity.Field{{Name: "tier", Type: entity.String, Required: true}}, Backfill: func(*entity.State) []entity.Op { return nil }}, true},
		{"retype existing field", Migration{Type: "Customer", AddFields: []entity.Field{{Name: "country", Type: entity.Int}}}, false},
		{"re-add identical field", Migration{Type: "Customer", AddFields: []entity.Field{{Name: "country", Type: entity.String}}}, true},
		{"remove field without force", Migration{Type: "Customer", RemoveFields: []string{"country"}}, false},
		{"remove field with force", Migration{Type: "Customer", RemoveFields: []string{"country"}, ForceRemove: true}, true},
		{"remove unknown field", Migration{Type: "Customer", RemoveFields: []string{"ghost"}, ForceRemove: true}, false},
		{"add child collection", Migration{Type: "Customer", AddChildren: []entity.ChildCollection{{Name: "contacts"}}}, true},
		{"unknown type", Migration{Type: "Ghost"}, false},
	}
	for _, tc := range cases {
		active, err := reg.Active(tc.mig.Type)
		if err == nil {
			err = checkAdmissible(active, tc.mig)
		}
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: should have been rejected", tc.name)
		}
	}
}

func TestProposeBuildsNextVersion(t *testing.T) {
	reg := NewRegistry()
	reg.Register(customerType())
	vt, err := reg.Propose(Migration{
		Type:        "Customer",
		AddFields:   []entity.Field{{Name: "segment", Type: entity.String}},
		AddChildren: []entity.ChildCollection{{Name: "contacts", Fields: []entity.Field{{Name: "email", Type: entity.String}}}},
		Description: "add segmentation",
	})
	if err != nil {
		t.Fatalf("Propose: %v", err)
	}
	if vt.Version != 2 {
		t.Fatalf("version = %d", vt.Version)
	}
	if len(vt.Type.Fields) != 3 || len(vt.Type.Children) != 1 {
		t.Fatalf("new type = %+v", vt.Type)
	}
	if len(reg.History("Customer")) != 2 {
		t.Fatalf("history = %d", len(reg.History("Customer")))
	}
	// Removing a field with force produces a version without it.
	vt3, err := reg.Propose(Migration{Type: "Customer", RemoveFields: []string{"country"}, ForceRemove: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range vt3.Type.Fields {
		if f.Name == "country" {
			t.Fatal("removed field still present")
		}
	}
}

// Proposals racing on one type each get their own version number, and each
// builds on the one before, so the last version holds every added field.
func TestConcurrentProposeNumbersVersionsOnce(t *testing.T) {
	const rounds, writers = 2000, 8
	for round := 0; round < rounds; round++ {
		reg := NewRegistry()
		if err := reg.Register(customerType()); err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				field := entity.Field{Name: fmt.Sprintf("f%d", w), Type: entity.String}
				if _, err := reg.Propose(Migration{Type: "Customer", AddFields: []entity.Field{field}}); err != nil {
					t.Error(err)
				}
			}()
		}
		close(start)
		wg.Wait()
		history := reg.History("Customer")
		versions := make([]int, len(history))
		for i, vt := range history {
			versions[i] = vt.Version
		}
		for i, v := range versions {
			if v != i+1 || len(versions) != writers+1 {
				t.Fatalf("round %d: versions %v, want 1..%d once each", round, versions, writers+1)
			}
		}
		active, err := reg.Active("Customer")
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(active.Type.Fields), len(customerType().Fields)+writers; got != want {
			t.Fatalf("round %d: active version %d has %d fields, want %d", round, active.Version, got, want)
		}
	}
}

func TestApplyOnlineBackfill(t *testing.T) {
	s := newStack(t)
	db, mgr := s.db, s.mgr
	seedCustomers(t, mgr, 20)
	vt, progress, err := s.apply(Migration{
		Type:      "Customer",
		AddFields: []entity.Field{{Name: "region", Type: entity.String}},
		Backfill: func(st *entity.State) []entity.Op {
			if st.StringField("country") == "DE" {
				return []entity.Op{entity.Set("region", "EMEA")}
			}
			return nil
		},
		Description: "derive region from country",
	}, 8)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if vt.Version != 2 {
		t.Fatalf("version = %d", vt.Version)
	}
	if progress.Entities != 20 || progress.Backfills != 20 || progress.Errors != 0 {
		t.Fatalf("progress = %+v", progress)
	}
	st, _, err := db.Current(cust("C005"))
	if err != nil || st.StringField("region") != "EMEA" {
		t.Fatalf("backfill missing: %v %v", st, err)
	}
	// New-schema writes are accepted after the migration.
	_, err = mgr.Run(nil, func(tx *txn.Txn) error {
		return tx.Update(cust("C999"), entity.Set("name", "new"), entity.Set("region", "APJ"))
	})
	if err != nil {
		t.Fatalf("post-migration write: %v", err)
	}
}

func TestApplyWithoutBackfill(t *testing.T) {
	s := newStack(t)
	seedCustomers(t, s.mgr, 3)
	_, progress, err := s.apply(Migration{
		Type:      "Customer",
		AddFields: []entity.Field{{Name: "notes", Type: entity.String}},
	}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if progress.Entities != 0 || progress.Backfills != 0 {
		t.Fatalf("no-backfill migration should not touch entities: %+v", progress)
	}
}

func TestApplyInadmissibleRejected(t *testing.T) {
	s := newStack(t)
	_, _, err := s.apply(Migration{Type: "Customer", RemoveFields: []string{"country"}}, 8)
	if !errors.Is(err, ErrInadmissible) {
		t.Fatalf("want ErrInadmissible, got %v", err)
	}
}

func TestApplyBackfillSkipsEntitiesNeedingNothing(t *testing.T) {
	s := newStack(t)
	seedCustomers(t, s.mgr, 4)
	_, progress, err := s.apply(Migration{
		Type:      "Customer",
		AddFields: []entity.Field{{Name: "region", Type: entity.String}},
		Backfill: func(st *entity.State) []entity.Op {
			if st.Key.ID == "C000" {
				return []entity.Op{entity.Set("region", "EMEA")}
			}
			return nil
		},
	}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if progress.Backfills != 1 || progress.Skipped != 3 {
		t.Fatalf("progress = %+v", progress)
	}
}

func TestOnlineMigrationDoesNotBlockWriters(t *testing.T) {
	s := newStack(t)
	mgr := s.mgr
	seedCustomers(t, mgr, 200)
	var writerErrors atomic.Int64
	var writes atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, err := mgr.Run(nil, func(tx *txn.Txn) error {
				return tx.Update(cust(fmt.Sprintf("C%03d", i%200)), entity.Set("name", "updated"))
			})
			if err != nil {
				writerErrors.Add(1)
			} else {
				writes.Add(1)
			}
			i++
		}
	}()
	_, progress, err := s.apply(Migration{
		Type:      "Customer",
		AddFields: []entity.Field{{Name: "region", Type: entity.String}},
		Backfill:  func(*entity.State) []entity.Op { return []entity.Op{entity.Set("region", "EMEA")} },
	}, 16)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if progress.Backfills == 0 {
		t.Fatal("backfill did nothing")
	}
	if writerErrors.Load() != 0 {
		t.Fatalf("writers blocked or failed %d times during online migration", writerErrors.Load())
	}
	if writes.Load() == 0 {
		t.Fatal("no live writes happened during the online migration window")
	}
}
