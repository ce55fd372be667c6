package entity

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/clock"
)

// orderType is the running example from the paper: an order with line items.
func orderType() *Type {
	return &Type{
		Name: "Order",
		Fields: []Field{
			{Name: "customer", Type: Reference, RefType: "Customer", Required: true},
			{Name: "status", Type: String},
			{Name: "total", Type: Float},
			{Name: "priority", Type: Int},
			{Name: "rush", Type: Bool},
		},
		Children: []ChildCollection{
			{Name: "lineitems", Fields: []Field{
				{Name: "product", Type: String, Required: true},
				{Name: "qty", Type: Int},
				{Name: "price", Type: Float},
			}},
		},
	}
}

func TestTypeValidate(t *testing.T) {
	if err := orderType().Validate(); err != nil {
		t.Fatalf("valid type rejected: %v", err)
	}
	bad := &Type{Name: "", Fields: nil}
	if err := bad.Validate(); err == nil {
		t.Fatal("empty type name should be rejected")
	}
	dup := &Type{Name: "X", Fields: []Field{{Name: "a", Type: Int}, {Name: "a", Type: Int}}}
	if err := dup.Validate(); err == nil {
		t.Fatal("duplicate field should be rejected")
	}
	badRef := &Type{Name: "X", Fields: []Field{{Name: "r", Type: Reference}}}
	if err := badRef.Validate(); err == nil {
		t.Fatal("reference without RefType should be rejected")
	}
	dupChild := &Type{Name: "X", Children: []ChildCollection{{Name: "c"}, {Name: "c"}}}
	if err := dupChild.Validate(); err == nil {
		t.Fatal("duplicate child collection should be rejected")
	}
	dupChildField := &Type{Name: "X", Children: []ChildCollection{{Name: "c", Fields: []Field{{Name: "f"}, {Name: "f"}}}}}
	if err := dupChildField.Validate(); err == nil {
		t.Fatal("duplicate child field should be rejected")
	}
	emptyChild := &Type{Name: "X", Children: []ChildCollection{{Name: ""}}}
	if err := emptyChild.Validate(); err == nil {
		t.Fatal("empty child collection name should be rejected")
	}
	emptyField := &Type{Name: "X", Fields: []Field{{Name: ""}}}
	if err := emptyField.Validate(); err == nil {
		t.Fatal("empty field name should be rejected")
	}
}

func TestKeyStringRoundTrip(t *testing.T) {
	k := Key{Type: "Order", ID: "O-1001"}
	parsed, err := ParseKey(k.String())
	if err != nil {
		t.Fatalf("ParseKey: %v", err)
	}
	if parsed != k {
		t.Fatalf("round trip mismatch: %v", parsed)
	}
	for _, bad := range []string{"", "Order", "/id", "Order/"} {
		if _, err := ParseKey(bad); err == nil {
			t.Errorf("ParseKey(%q) should fail", bad)
		}
	}
}

func TestApplySetAndAccessors(t *testing.T) {
	typ := orderType()
	s := NewState(Key{Type: "Order", ID: "1"})
	ops := []Op{
		Set("customer", "Customer/C-9"),
		Set("status", "OPEN"),
		Set("total", 99.5),
		Set("priority", 3),
		Set("rush", true),
	}
	next, warnings, err := Apply(typ, s, ops, Strict)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if len(warnings) != 0 {
		t.Fatalf("unexpected warnings: %v", warnings)
	}
	if next.StringField("status") != "OPEN" {
		t.Errorf("status = %q", next.StringField("status"))
	}
	if next.Float("total") != 99.5 {
		t.Errorf("total = %v", next.Float("total"))
	}
	if next.Int("priority") != 3 {
		t.Errorf("priority = %v", next.Int("priority"))
	}
	if !next.Bool("rush") {
		t.Error("rush not set")
	}
	// Original state must be untouched (insert-only semantics).
	if len(s.Fields) != 0 {
		t.Fatalf("prior state mutated: %v", s.Fields)
	}
}

func TestApplyStrictRejectsUnknownField(t *testing.T) {
	typ := orderType()
	s := NewState(Key{Type: "Order", ID: "1"})
	_, _, err := Apply(typ, s, []Op{Set("nonexistent", 1)}, Strict)
	if !errors.Is(err, ErrUnknownField) {
		t.Fatalf("want ErrUnknownField, got %v", err)
	}
}

func TestApplyManagedAcceptsUnknownFieldWithWarning(t *testing.T) {
	typ := orderType()
	s := NewState(Key{Type: "Order", ID: "1"})
	next, warnings, err := Apply(typ, s, []Op{Set("nonexistent", int64(1))}, Managed)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if len(warnings) != 1 {
		t.Fatalf("want 1 warning, got %v", warnings)
	}
	if next.Fields["nonexistent"] == nil {
		t.Fatal("managed mode should still record the value")
	}
	if !strings.Contains(warnings[0].String(), "unknown field") {
		t.Errorf("warning text: %s", warnings[0])
	}
}

func TestApplyTypeCoercion(t *testing.T) {
	typ := orderType()
	s := NewState(Key{Type: "Order", ID: "1"})
	next, _, err := Apply(typ, s, []Op{Set("priority", 7), Set("total", 10)}, Strict)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if _, ok := next.Fields["priority"].(int64); !ok {
		t.Errorf("int not coerced to int64: %T", next.Fields["priority"])
	}
	if _, ok := next.Fields["total"].(float64); !ok {
		t.Errorf("int not coerced to float64 for Float field: %T", next.Fields["total"])
	}
}

func TestApplyTypeMismatchStrict(t *testing.T) {
	typ := orderType()
	s := NewState(Key{Type: "Order", ID: "1"})
	cases := []Op{
		Set("priority", "high"),
		Set("status", 42),
		Set("rush", "yes"),
		Set("total", "lots"),
		Set("priority", 1.5),
	}
	for _, op := range cases {
		if _, _, err := Apply(typ, s, []Op{op}, Strict); !errors.Is(err, ErrTypeMismatch) {
			t.Errorf("op %v: want ErrTypeMismatch, got %v", op, err)
		}
	}
}

func TestApplyTypeMismatchManagedSkipsValue(t *testing.T) {
	typ := orderType()
	s := NewState(Key{Type: "Order", ID: "1"})
	next, warnings, err := Apply(typ, s, []Op{Set("priority", "high")}, Managed)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if len(warnings) != 1 {
		t.Fatalf("want warning, got %v", warnings)
	}
	if _, present := next.Fields["priority"]; present {
		t.Fatal("mismatched value should not be stored even in managed mode")
	}
}

func TestApplyDelta(t *testing.T) {
	typ := orderType()
	s := NewState(Key{Type: "Order", ID: "1"})
	next, _, err := Apply(typ, s, []Op{Delta("total", 10), Delta("total", 5.5), Delta("priority", 2)}, Strict)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if next.Float("total") != 15.5 {
		t.Errorf("total = %v, want 15.5", next.Float("total"))
	}
	if next.Int("priority") != 2 {
		t.Errorf("priority = %v, want 2", next.Int("priority"))
	}
	// Negative deltas are allowed (the paper's negative-inventory example).
	next, _, err = Apply(typ, next, []Op{Delta("priority", -5)}, Strict)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if next.Int("priority") != -3 {
		t.Errorf("priority after negative delta = %v, want -3", next.Int("priority"))
	}
}

func TestApplyDeltaOnNonNumericField(t *testing.T) {
	typ := orderType()
	s := NewState(Key{Type: "Order", ID: "1"})
	if _, _, err := Apply(typ, s, []Op{Delta("status", 1)}, Strict); err == nil {
		t.Fatal("delta on string field should fail in strict mode")
	}
	_, warnings, err := Apply(typ, s, []Op{Delta("status", 1)}, Managed)
	if err != nil || len(warnings) != 1 {
		t.Fatalf("managed delta on string: err=%v warnings=%v", err, warnings)
	}
}

func TestApplyChildren(t *testing.T) {
	typ := orderType()
	s := NewState(Key{Type: "Order", ID: "1"})
	ops := []Op{
		InsertChild("lineitems", "L1", Fields{"product": "widget", "qty": 3, "price": 9.99}),
		InsertChild("lineitems", "L2", Fields{"product": "gadget", "qty": 1, "price": 20.0}),
		SetChildField("lineitems", "L1", "qty", 5),
		DeltaChildField("lineitems", "L2", "qty", 2),
	}
	next, warnings, err := Apply(typ, s, ops, Strict)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if len(warnings) != 0 {
		t.Fatalf("warnings: %v", warnings)
	}
	l1, ok := next.ChildByID("lineitems", "L1")
	if !ok || l1.Fields["qty"].(int64) != 5 {
		t.Fatalf("L1 = %+v", l1)
	}
	l2, _ := next.ChildByID("lineitems", "L2")
	if l2.Fields["qty"].(int64) != 3 {
		t.Fatalf("L2 qty = %v, want 3", l2.Fields["qty"])
	}
	if len(next.LiveChildren("lineitems")) != 2 {
		t.Fatalf("live children = %d", len(next.LiveChildren("lineitems")))
	}
}

func TestApplyDeleteChildTombstones(t *testing.T) {
	typ := orderType()
	s := NewState(Key{Type: "Order", ID: "1"})
	next, _, err := Apply(typ, s, []Op{
		InsertChild("lineitems", "L1", Fields{"product": "widget"}),
		DeleteChild("lineitems", "L1"),
	}, Strict)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if len(next.LiveChildren("lineitems")) != 0 {
		t.Fatal("deleted child still live")
	}
	// The row is still there, just marked (principle 2.7).
	c, ok := next.ChildByID("lineitems", "L1")
	if !ok || !c.Deleted {
		t.Fatalf("tombstone missing: %+v", c)
	}
}

func TestApplyDeleteChildMissingStrictVsManaged(t *testing.T) {
	typ := orderType()
	s := NewState(Key{Type: "Order", ID: "1"})
	if _, _, err := Apply(typ, s, []Op{DeleteChild("lineitems", "nope")}, Strict); !errors.Is(err, ErrNoSuchChild) {
		t.Fatalf("want ErrNoSuchChild, got %v", err)
	}
	_, warnings, err := Apply(typ, s, []Op{DeleteChild("lineitems", "nope")}, Managed)
	if err != nil || len(warnings) != 1 {
		t.Fatalf("managed: err=%v warnings=%v", err, warnings)
	}
}

func TestApplyInsertChildRequiredField(t *testing.T) {
	typ := orderType()
	s := NewState(Key{Type: "Order", ID: "1"})
	op := InsertChild("lineitems", "L1", Fields{"qty": 1})
	if _, _, err := Apply(typ, s, []Op{op}, Strict); !errors.Is(err, ErrMissingRequired) {
		t.Fatalf("want ErrMissingRequired, got %v", err)
	}
	_, warnings, err := Apply(typ, s, []Op{op}, Managed)
	if err != nil {
		t.Fatalf("managed: %v", err)
	}
	if len(warnings) != 1 {
		t.Fatalf("warnings = %v", warnings)
	}
}

func TestApplyInsertChildUpsert(t *testing.T) {
	typ := orderType()
	s := NewState(Key{Type: "Order", ID: "1"})
	next, _, err := Apply(typ, s, []Op{
		InsertChild("lineitems", "L1", Fields{"product": "widget", "qty": 1}),
		InsertChild("lineitems", "L1", Fields{"product": "widget", "qty": 4}),
	}, Strict)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if next.ChildCount("lineitems") != 1 {
		t.Fatalf("upsert created duplicate rows: %d", next.ChildCount("lineitems"))
	}
	c, _ := next.ChildByID("lineitems", "L1")
	if c.Fields["qty"].(int64) != 4 {
		t.Fatalf("qty = %v, want 4", c.Fields["qty"])
	}
}

func TestApplySetChildFieldMissingChildManagedMaterialises(t *testing.T) {
	typ := orderType()
	s := NewState(Key{Type: "Order", ID: "1"})
	// The update arrives before the insert (out-of-order, principle 2.2).
	next, warnings, err := Apply(typ, s, []Op{SetChildField("lineitems", "L9", "qty", 7)}, Managed)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if len(warnings) != 1 {
		t.Fatalf("want warning for forward reference, got %v", warnings)
	}
	c, ok := next.ChildByID("lineitems", "L9")
	if !ok || c.Fields["qty"].(int64) != 7 {
		t.Fatalf("forward-referenced child not materialised: %+v", c)
	}
}

func TestApplyUnknownCollection(t *testing.T) {
	typ := orderType()
	s := NewState(Key{Type: "Order", ID: "1"})
	if _, _, err := Apply(typ, s, []Op{InsertChild("parts", "P1", Fields{})}, Strict); !errors.Is(err, ErrUnknownCollection) {
		t.Fatalf("want ErrUnknownCollection, got %v", err)
	}
	next, warnings, err := Apply(typ, s, []Op{InsertChild("parts", "P1", Fields{"x": int64(1)})}, Managed)
	if err != nil || len(warnings) != 1 {
		t.Fatalf("managed: err=%v warnings=%v", err, warnings)
	}
	if _, ok := next.ChildByID("parts", "P1"); !ok {
		t.Fatal("managed mode should keep the row")
	}
}

func TestApplyDeleteAndUndelete(t *testing.T) {
	typ := orderType()
	s := NewState(Key{Type: "Order", ID: "1"})
	next, _, err := Apply(typ, s, []Op{Set("status", "OPEN"), Delete()}, Strict)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if !next.Deleted {
		t.Fatal("entity not tombstoned")
	}
	// Operating on a deleted entity is a strict error, a managed warning.
	if _, _, err := Apply(typ, next, []Op{Set("status", "REOPENED")}, Strict); !errors.Is(err, ErrDeleted) {
		t.Fatalf("want ErrDeleted, got %v", err)
	}
	revived, warnings, err := Apply(typ, next, []Op{Set("status", "REOPENED")}, Managed)
	if err != nil || len(warnings) != 1 {
		t.Fatalf("managed write to deleted: err=%v warnings=%v", err, warnings)
	}
	if revived.StringField("status") != "REOPENED" {
		t.Fatal("managed write lost")
	}
	undeleted, _, err := Apply(typ, next, []Op{Undelete()}, Strict)
	if err != nil || undeleted.Deleted {
		t.Fatalf("undelete failed: %v", err)
	}
}

func TestApplyTentativeAndConfirm(t *testing.T) {
	typ := orderType()
	s := NewState(Key{Type: "Order", ID: "1"})
	next, _, err := Apply(typ, s, []Op{MarkTentative("offer pending"), Set("status", "OFFERED")}, Strict)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if !next.Tentative {
		t.Fatal("state should be tentative")
	}
	confirmed, _, err := Apply(typ, next, []Op{Confirm()}, Strict)
	if err != nil || confirmed.Tentative {
		t.Fatalf("confirm failed: %v", err)
	}
}

func TestApplyErrorLeavesPriorUntouched(t *testing.T) {
	typ := orderType()
	s := NewState(Key{Type: "Order", ID: "1"})
	s.Fields["status"] = "OPEN"
	got, _, err := Apply(typ, s, []Op{Set("status", "SHIPPED"), Set("bogus", 1)}, Strict)
	if err == nil {
		t.Fatal("expected error")
	}
	if got != s {
		t.Fatal("failed Apply should return the prior state")
	}
	if s.StringField("status") != "OPEN" {
		t.Fatal("prior state mutated by failed Apply")
	}
}

func TestStateCloneIndependence(t *testing.T) {
	typ := orderType()
	s := NewState(Key{Type: "Order", ID: "1"})
	s.Fields["status"] = "OPEN"
	s.appendChild("lineitems", Child{ID: "L1", Fields: Fields{"qty": int64(1)}})
	c := s.Clone()
	c.Fields["status"] = "CLOSED"
	// Child mutation goes through ops; the clone must copy-on-write the
	// touched chunk instead of reaching into the shared one.
	c2, _, err := Apply(typ, c, []Op{SetChildField("lineitems", "L1", "qty", 99)}, Managed)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if s.StringField("status") != "OPEN" {
		t.Fatal("clone aliased root fields")
	}
	if row, _ := s.ChildByID("lineitems", "L1"); row.Fields["qty"].(int64) != 1 {
		t.Fatal("clone aliased child fields")
	}
	if row, _ := c2.ChildByID("lineitems", "L1"); row.Fields["qty"].(int64) != 99 {
		t.Fatalf("write lost: %v", row.Fields["qty"])
	}
}

// A clone shares its source's collection map until its first child write; a
// new or rewritten collection on either side never shows on the other, from
// a frozen source and from a mutable one alike.
func TestCloneSharesCollectionMapUntilChildWrite(t *testing.T) {
	typ := orderType()
	base, _, err := Apply(typ, NewState(Key{Type: "Order", ID: "1"}), []Op{
		Set("status", "OPEN"),
		InsertChild("lineitems", "L1", Fields{"product": "widget", "qty": 1}),
	}, Managed)
	if err != nil {
		t.Fatal(err)
	}
	for _, frozen := range []bool{true, false} {
		src := base.Clone()
		if frozen {
			src.Freeze()
		}
		// Root-only writes: the collection map is still the source's own.
		rootOnly, _, err := Apply(typ, src, []Op{Set("status", "PAID"), Delta("total", 5)}, Managed)
		if err != nil {
			t.Fatal(err)
		}
		if !rootOnly.sharedKids || len(rootOnly.children) != 1 || rootOnly.children["lineitems"] != src.children["lineitems"] {
			t.Fatalf("frozen=%v: a root-only apply copied the collection map", frozen)
		}
		// A child write on the clone — into a new collection and into the
		// existing one — stays on the clone.
		wrote, _, err := Apply(typ, rootOnly, []Op{
			InsertChild("notes", "N1", Fields{"text": "hello"}),
			SetChildField("lineitems", "L1", "qty", 7),
		}, Managed)
		if err != nil {
			t.Fatal(err)
		}
		for name, st := range map[string]*State{"source": src, "root-only clone": rootOnly} {
			if got := fmt.Sprint(st.Collections()); got != "[lineitems]" {
				t.Fatalf("frozen=%v: %s sees collections %s after a write to its clone", frozen, name, got)
			}
			if row, _ := st.ChildByID("lineitems", "L1"); row.Fields["qty"] != int64(1) {
				t.Fatalf("frozen=%v: %s sees qty %v after a write to its clone", frozen, name, row.Fields["qty"])
			}
		}
		if got := fmt.Sprint(wrote.Collections()); got != "[lineitems notes]" {
			t.Fatalf("frozen=%v: writer sees collections %s", frozen, got)
		}
		if row, _ := wrote.ChildByID("lineitems", "L1"); row.Fields["qty"] != int64(7) {
			t.Fatalf("frozen=%v: write lost: %v", frozen, row.Fields["qty"])
		}
		if frozen {
			continue
		}
		// A mutable source keeps working after being cloned, on its own copy.
		if _, err := ApplyInPlace(typ, src, []Op{InsertChild("audit", "A1", Fields{"by": "me"})}, Managed); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(rootOnly.Collections()); got != "[lineitems]" {
			t.Fatalf("a write to a cloned mutable source reached its clone: %s", got)
		}
		if got := fmt.Sprint(src.Collections()); got != "[audit lineitems]" {
			t.Fatalf("mutable source sees collections %s", got)
		}
	}
}

// ApplyInPlace is Apply without the copy: same state, same warnings.
func TestApplyInPlaceMatchesApply(t *testing.T) {
	typ := orderType()
	ops := []Op{
		Set("status", "OPEN"), Delta("total", 12.5), Set("bogus", 1),
		InsertChild("lineitems", "L1", Fields{"product": "widget", "qty": 2}),
		DeltaChildField("lineitems", "L1", "qty", 3),
	}
	prior := NewState(Key{Type: "Order", ID: "1"})
	want, wantWarn, err := Apply(typ, prior, ops, Managed)
	if err != nil {
		t.Fatal(err)
	}
	got := NewState(Key{Type: "Order", ID: "1"})
	gotWarn, err := ApplyInPlace(typ, got, ops, Managed)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Fields) != fmt.Sprint(want.Fields) || fmt.Sprint(got.Children("lineitems")) != fmt.Sprint(want.Children("lineitems")) {
		t.Fatalf("in place: %v %v, copied: %v %v", got.Fields, got.Children("lineitems"), want.Fields, want.Children("lineitems"))
	}
	if fmt.Sprint(gotWarn) != fmt.Sprint(wantWarn) || len(gotWarn) != 1 {
		t.Fatalf("warnings differ: %v vs %v", gotWarn, wantWarn)
	}
	if len(prior.Fields) != 0 {
		t.Fatal("Apply wrote into its prior")
	}
	if _, err := ApplyInPlace(typ, got, []Op{Set("priority", "high")}, Strict); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("strict violation in place: %v, want ErrTypeMismatch", err)
	}
}

func TestFreezeThawContract(t *testing.T) {
	typ := orderType()
	s := NewState(Key{Type: "Order", ID: "1"})
	base, _, err := Apply(typ, s, []Op{
		Set("status", "OPEN"),
		InsertChild("lineitems", "L1", Fields{"product": "widget", "qty": 1}),
	}, Strict)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	frozen := base.Freeze()
	if !frozen.Frozen() || frozen != base {
		t.Fatal("Freeze should mark in place and return the state")
	}
	if frozen.Freeze() != frozen {
		t.Fatal("Freeze is not idempotent")
	}
	// Thawing yields a mutable structural-sharing copy.
	thawed := frozen.Thaw()
	if thawed == frozen || thawed.Frozen() {
		t.Fatal("Thaw of a frozen state must return a mutable copy")
	}
	if thawed.Thaw() != thawed {
		t.Fatal("Thaw of a mutable state should return itself")
	}
	thawed.Fields["status"] = "CLOSED"
	next, _, err := Apply(typ, thawed, []Op{SetChildField("lineitems", "L1", "qty", 42)}, Strict)
	if err != nil {
		t.Fatalf("Apply on thawed: %v", err)
	}
	if frozen.StringField("status") != "OPEN" {
		t.Fatal("thawed root write leaked into frozen state")
	}
	if row, _ := frozen.ChildByID("lineitems", "L1"); row.Fields["qty"].(int64) != 1 {
		t.Fatalf("thawed child write leaked into frozen state: %v", row.Fields["qty"])
	}
	if row, _ := next.ChildByID("lineitems", "L1"); row.Fields["qty"].(int64) != 42 {
		t.Fatalf("write lost on thawed copy: %v", row.Fields["qty"])
	}
	// Writing a frozen state through the entity API panics loudly.
	defer func() {
		if recover() == nil {
			t.Fatal("mutating a frozen state should panic")
		}
	}()
	frozen.mutableCol("lineitems")
}

// TestWideCollectionIndexAndCOW drives a collection past several chunk and
// reindex boundaries and checks lookups, live counts and structural sharing
// all stay correct.
func TestWideCollectionIndexAndCOW(t *testing.T) {
	typ := orderType()
	state := NewState(Key{Type: "Order", ID: "wide"})
	const width = 500
	versions := make([]*State, 0, width)
	for i := 0; i < width; i++ {
		next, _, err := Apply(typ, state, []Op{
			InsertChild("lineitems", fmt.Sprintf("L%d", i), Fields{"product": fmt.Sprintf("p%d", i), "qty": i}),
		}, Strict)
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		state = next.Freeze()
		versions = append(versions, state)
	}
	// Every version still sees exactly its own prefix.
	for _, n := range []int{0, 63, 64, 127, 255, width - 1} {
		v := versions[n]
		if v.ChildCount("lineitems") != n+1 {
			t.Fatalf("version %d sees %d children", n, v.ChildCount("lineitems"))
		}
		row, ok := v.ChildByID("lineitems", fmt.Sprintf("L%d", n))
		if !ok || row.Fields["qty"].(int64) != int64(n) {
			t.Fatalf("version %d lookup of L%d: ok=%v row=%v", n, n, ok, row)
		}
		if _, ok := v.ChildByID("lineitems", fmt.Sprintf("L%d", n+1)); ok {
			t.Fatalf("version %d sees a child from the future", n)
		}
	}
	// Delete + reinsert keeps id lookups on the first occurrence and live
	// counts exact.
	next, _, err := Apply(typ, state, []Op{DeleteChild("lineitems", "L10")}, Strict)
	if err != nil {
		t.Fatalf("delete: %v", err)
	}
	if got := len(next.LiveChildren("lineitems")); got != width-1 {
		t.Fatalf("live after delete = %d, want %d", got, width-1)
	}
	if got := len(state.LiveChildren("lineitems")); got != width {
		t.Fatalf("delete leaked into frozen predecessor: live=%d", got)
	}
	reinserted, _, err := Apply(typ, next, []Op{InsertChild("lineitems", "L10", Fields{"product": "again", "qty": 777})}, Strict)
	if err != nil {
		t.Fatalf("reinsert: %v", err)
	}
	if got := len(reinserted.LiveChildren("lineitems")); got != width {
		t.Fatalf("live after reinsert = %d, want %d", got, width)
	}
	// Delete again must tombstone the duplicate-id rows too.
	gone, _, err := Apply(typ, reinserted, []Op{DeleteChild("lineitems", "L10")}, Strict)
	if err != nil {
		t.Fatalf("second delete: %v", err)
	}
	for _, row := range gone.Children("lineitems") {
		if row.ID == "L10" && !row.Deleted {
			t.Fatal("duplicate-id row survived delete")
		}
	}
}

func TestSanitizeOps(t *testing.T) {
	// Scalars pass through without copying the slice.
	ops := []Op{Set("status", "OPEN"), Delta("total", 1)}
	got, err := SanitizeOps(ops)
	if err != nil {
		t.Fatalf("SanitizeOps: %v", err)
	}
	if &got[0] != &ops[0] {
		t.Fatal("scalar ops should not be copied")
	}
	// Container values are deep-copied: mutating the caller's map afterwards
	// must not reach the sanitized op.
	row := map[string]interface{}{"nested": []interface{}{int64(1)}}
	dirty := []Op{{Kind: OpSet, Field: "blob", Value: row}}
	clean, err := SanitizeOps(dirty)
	if err != nil {
		t.Fatalf("SanitizeOps(container): %v", err)
	}
	row["nested"].([]interface{})[0] = int64(99)
	row["added"] = "later"
	cleanMap := clean[0].Value.(map[string]interface{})
	if cleanMap["nested"].([]interface{})[0].(int64) != 1 || cleanMap["added"] != nil {
		t.Fatalf("sanitized op aliases caller map: %v", cleanMap)
	}
	// Unsupported kinds are rejected.
	type weird struct{ X int }
	if _, err := SanitizeOps([]Op{{Kind: OpSet, Field: "w", Value: weird{1}}}); !errors.Is(err, ErrUnsafeValue) {
		t.Fatalf("struct value accepted: %v", err)
	}
	if _, err := SanitizeOps([]Op{{Kind: OpInsertChild, Collection: "c", ChildID: "1", ChildRow: Fields{"ch": make(chan int)}}}); !errors.Is(err, ErrUnsafeValue) {
		t.Fatalf("chan value in child row accepted: %v", err)
	}
}

func TestOpConstructorsCopyContainers(t *testing.T) {
	row := Fields{"qty": int64(1)}
	op := InsertChild("lineitems", "L1", row)
	row["qty"] = int64(99)
	if op.ChildRow["qty"].(int64) != 1 {
		t.Fatalf("InsertChild aliased the caller's row map: %v", op.ChildRow["qty"])
	}
	val := []interface{}{int64(1)}
	set := Set("blob", val)
	val[0] = int64(99)
	if set.Value.([]interface{})[0].(int64) != 1 {
		t.Fatal("Set aliased the caller's slice value")
	}
}

func TestOpStringAndCommutes(t *testing.T) {
	if !Delta("x", 1).Commutes() || !DeltaChildField("c", "1", "x", 1).Commutes() || !InsertChild("c", "1", nil).Commutes() {
		t.Error("commutative ops misclassified")
	}
	if Set("x", 1).Commutes() || Delete().Commutes() {
		t.Error("non-commutative ops misclassified")
	}
	for _, op := range []Op{Set("a", 1), Delta("a", 2), InsertChild("c", "i", nil),
		SetChildField("c", "i", "f", 1), DeltaChildField("c", "i", "f", 1), DeleteChild("c", "i"),
		Delete(), Undelete(), MarkTentative("x"), Confirm()} {
		if op.String() == "" {
			t.Errorf("empty String for %v", op.Kind)
		}
	}
	d := Set("a", 1).Described("set a for audit")
	if d.Describe != "set a for audit" {
		t.Error("Described did not attach text")
	}
}

func TestOpKindAndFieldTypeStrings(t *testing.T) {
	if OpSet.String() != "set" || OpDelta.String() != "delta" {
		t.Error("OpKind names wrong")
	}
	if OpKind(99).String() == "" || FieldType(99).String() == "" {
		t.Error("unknown enum should still render")
	}
	if String.String() != "string" || Reference.String() != "reference" {
		t.Error("FieldType names wrong")
	}
}

func newVersion(t *testing.T, typ *Type, key Key, seq uint64, origin clock.NodeID, stamp clock.Timestamp, base *State, ops ...Op) *Version {
	t.Helper()
	st, _, err := Apply(typ, base, ops, Managed)
	if err != nil {
		t.Fatalf("newVersion apply: %v", err)
	}
	return &Version{Key: key, Seq: seq, Ops: ops, State: st, Stamp: stamp, Origin: origin}
}

func TestHistoryLatestAndAsOf(t *testing.T) {
	typ := orderType()
	key := Key{Type: "Order", ID: "1"}
	h := NewHistory(key)
	base := NewState(key)
	t1 := clock.Timestamp{WallNanos: 100, Node: "a"}
	t2 := clock.Timestamp{WallNanos: 200, Node: "a"}
	t3 := clock.Timestamp{WallNanos: 300, Node: "a"}
	v1 := newVersion(t, typ, key, 1, "a", t1, base, Set("status", "OPEN"))
	v2 := newVersion(t, typ, key, 2, "a", t2, v1.State, Set("status", "PAID"))
	v3 := newVersion(t, typ, key, 3, "a", t3, v2.State, Set("status", "SHIPPED"))
	v3.Obsolete = true
	h.Append(v1)
	h.Append(v2)
	h.Append(v3)
	if h.Len() != 3 {
		t.Fatalf("Len = %d", h.Len())
	}
	if got := h.Latest(); got != v2 {
		t.Fatalf("Latest should skip obsolete versions, got seq %d", got.Seq)
	}
	if got := h.AsOf(clock.Timestamp{WallNanos: 150, Node: "z"}); got != v1 {
		t.Fatalf("AsOf(150) = seq %d, want 1", got.Seq)
	}
	if got := h.AsOf(clock.Timestamp{WallNanos: 50, Node: "z"}); got != nil {
		t.Fatalf("AsOf before first version should be nil, got seq %d", got.Seq)
	}
	if got := h.AsOf(clock.Timestamp{WallNanos: 999, Node: "z"}); got != v2 {
		t.Fatalf("AsOf(999) should skip obsolete, got seq %d", got.Seq)
	}
}

func TestHistoryLatestEmpty(t *testing.T) {
	h := NewHistory(Key{Type: "Order", ID: "1"})
	if h.Latest() != nil {
		t.Fatal("empty history Latest should be nil")
	}
}

func TestHistoryContainsTxn(t *testing.T) {
	h := NewHistory(Key{Type: "Order", ID: "1"})
	h.Append(&Version{TxnID: "txn-1"})
	if !h.ContainsTxn("txn-1") {
		t.Fatal("ContainsTxn missed existing txn")
	}
	if h.ContainsTxn("txn-2") || h.ContainsTxn("") {
		t.Fatal("ContainsTxn false positive")
	}
}

func TestHistoryTrace(t *testing.T) {
	typ := orderType()
	key := Key{Type: "Inventory", ID: "widget"}
	invType := &Type{Name: "Inventory", Fields: []Field{{Name: "onhand", Type: Int}}}
	_ = typ
	h := NewHistory(key)
	base := NewState(key)
	v1 := newVersion(t, invType, key, 1, "warehouse", clock.Timestamp{WallNanos: 1, Node: "w"}, base,
		Delta("onhand", 10).Described("received 10 widgets"))
	v2 := newVersion(t, invType, key, 2, "packer", clock.Timestamp{WallNanos: 2, Node: "p"}, v1.State,
		Delta("onhand", -12).Described("packed 12 widgets for order O-7"))
	v2.Tentative = true
	h.Append(v1)
	h.Append(v2)
	trace := h.Trace()
	if len(trace) != 2 {
		t.Fatalf("trace lines = %d", len(trace))
	}
	if !strings.Contains(trace[1], "packed 12 widgets") || !strings.Contains(trace[1], "[tentative]") {
		t.Fatalf("trace missing description or flag: %q", trace[1])
	}
	if v2.State.Int("onhand") != -2 {
		t.Fatalf("negative inventory not representable: %d", v2.State.Int("onhand"))
	}
}

// Property: Apply never mutates the prior state, for arbitrary delta/set
// sequences.
func TestApplyPurityProperty(t *testing.T) {
	typ := &Type{Name: "Acct", Fields: []Field{{Name: "balance", Type: Float}, {Name: "owner", Type: String}}}
	key := Key{Type: "Acct", ID: "1"}
	f := func(deltas []int8, owner string) bool {
		prior := NewState(key)
		prior.Fields["balance"] = float64(42)
		prior.Fields["owner"] = "original"
		ops := []Op{Set("owner", owner)}
		for _, d := range deltas {
			ops = append(ops, Delta("balance", float64(d)))
		}
		_, _, err := Apply(typ, prior, ops, Managed)
		if err != nil {
			return false
		}
		return prior.Float("balance") == 42 && prior.StringField("owner") == "original"
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFieldsCloneIndependence(t *testing.T) {
	f := Fields{"a": int64(1)}
	c := f.Clone()
	c["a"] = int64(2)
	if f["a"].(int64) != 1 {
		t.Fatal("Fields.Clone aliased the map")
	}
}

func TestVersionStampUsesHLC(t *testing.T) {
	// Sanity check that entity versions interoperate with the clock package.
	h := clock.NewHLCWithSource("n1", func() time.Time { return time.Unix(5, 0) })
	ts1 := h.Now()
	ts2 := h.Now()
	if ts2.Compare(ts1) != clock.After {
		t.Fatal("HLC not monotonic in entity context")
	}
}
