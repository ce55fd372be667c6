package repro_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/clock"
	"repro/internal/entity"
)

// Merge and its strategies are E4's subject (BenchmarkE4ConflictResolution).
// The kernel keeps one writer per entity and never merges, so they live
// beside the benchmark rather than in the entity package.

// MergeStrategy selects how two concurrent states of the same entity are
// reconciled (principle 2.10: a single end-to-end conflict-handling
// mechanism).
type MergeStrategy int

// Supported merge strategies.
const (
	// LastWriterWins keeps the state with the larger HLC timestamp; the other
	// side's non-commutative effects are lost (and counted).
	LastWriterWins MergeStrategy = iota
	// OperationReplay reapplies both sides' operations on top of the common
	// base; commutative operations merge losslessly, conflicting register
	// writes fall back to timestamp order.
	OperationReplay
)

// String returns the strategy name.
func (m MergeStrategy) String() string {
	switch m {
	case LastWriterWins:
		return "last-writer-wins"
	case OperationReplay:
		return "operation-replay"
	default:
		return fmt.Sprintf("MergeStrategy(%d)", int(m))
	}
}

// MergeResult reports the outcome of reconciling two concurrent versions.
type MergeResult struct {
	State *entity.State
	// LostOps counts operations whose effect was discarded by the merge
	// (e.g. the losing side of a register conflict). Zero means lossless.
	LostOps int
	// ConflictFields lists root fields where both sides wrote different
	// values non-commutatively.
	ConflictFields []string
}

// Merge reconciles two concurrent versions whose common ancestor produced
// base (base may be an empty state). Both versions' operations and stamps
// must be populated.
func Merge(typ *entity.Type, base *entity.State, a, b *entity.Version, strategy MergeStrategy) (MergeResult, error) {
	switch strategy {
	case LastWriterWins:
		winner, loser := a, b
		if b.Stamp.Compare(a.Stamp) == clock.After {
			winner, loser = b, a
		}
		return MergeResult{State: winner.State.Clone(), LostOps: len(loser.Ops), ConflictFields: conflictFields(a, b)}, nil
	case OperationReplay:
		// Deterministic order: replay the earlier-stamped side first so both
		// replicas converge to the same result regardless of merge direction.
		first, second := a, b
		if a.Stamp.Compare(b.Stamp) == clock.After {
			first, second = b, a
		}
		merged := base.Clone()
		lost := 0
		st, _, err := entity.Apply(typ, merged, first.Ops, entity.Managed)
		if err != nil {
			return MergeResult{}, fmt.Errorf("merge replay (first): %w", err)
		}
		st, _, err = entity.Apply(typ, st, second.Ops, entity.Managed)
		if err != nil {
			return MergeResult{}, fmt.Errorf("merge replay (second): %w", err)
		}
		conflicts := conflictFields(a, b)
		// Register conflicts: the later write wins during replay; count the
		// earlier side's overwritten sets as lost.
		for _, f := range conflicts {
			for _, op := range first.Ops {
				if op.Kind == entity.OpSet && op.Field == f {
					lost++
				}
			}
		}
		return MergeResult{State: st, LostOps: lost, ConflictFields: conflicts}, nil
	default:
		return MergeResult{}, fmt.Errorf("entity: unknown merge strategy %v", strategy)
	}
}

// conflictFields returns root fields written non-commutatively by both sides
// with different values. Values are compared with reflect.DeepEqual because
// ops may legitimately carry container values (sanitized maps/slices), whose
// dynamic types a plain == would panic on.
func conflictFields(a, b *entity.Version) []string {
	setsA := map[string]interface{}{}
	for _, op := range a.Ops {
		if op.Kind == entity.OpSet {
			setsA[op.Field] = op.Value
		}
	}
	var out []string
	seen := map[string]bool{}
	for _, op := range b.Ops {
		if op.Kind != entity.OpSet {
			continue
		}
		if va, ok := setsA[op.Field]; ok && !seen[op.Field] && !reflect.DeepEqual(va, op.Value) {
			out = append(out, op.Field)
			seen[op.Field] = true
		}
	}
	sort.Strings(out)
	return out
}

// orderType is the running example from the paper: an order with line items.
func orderType() *entity.Type {
	return &entity.Type{
		Name: "Order",
		Fields: []entity.Field{
			{Name: "customer", Type: entity.Reference, RefType: "Customer", Required: true},
			{Name: "status", Type: entity.String},
			{Name: "total", Type: entity.Float},
			{Name: "priority", Type: entity.Int},
			{Name: "rush", Type: entity.Bool},
		},
		Children: []entity.ChildCollection{
			{Name: "lineitems", Fields: []entity.Field{
				{Name: "product", Type: entity.String, Required: true},
				{Name: "qty", Type: entity.Int},
				{Name: "price", Type: entity.Float},
			}},
		},
	}
}

func newVersion(t *testing.T, typ *entity.Type, key entity.Key, seq uint64, origin clock.NodeID, stamp clock.Timestamp, base *entity.State, ops ...entity.Op) *entity.Version {
	t.Helper()
	st, _, err := entity.Apply(typ, base, ops, entity.Managed)
	if err != nil {
		t.Fatalf("newVersion apply: %v", err)
	}
	return &entity.Version{Key: key, Seq: seq, Ops: ops, State: st, Stamp: stamp, Origin: origin}
}

func TestMergeLastWriterWinsLosesOps(t *testing.T) {
	typ := orderType()
	key := entity.Key{Type: "Order", ID: "1"}
	base := entity.NewState(key)
	a := newVersion(t, typ, key, 1, "r1", clock.Timestamp{WallNanos: 100, Node: "r1"}, base, entity.Set("status", "PAID"), entity.Delta("total", 10))
	b := newVersion(t, typ, key, 1, "r2", clock.Timestamp{WallNanos: 200, Node: "r2"}, base, entity.Set("status", "CANCELLED"))
	res, err := Merge(typ, base, a, b, LastWriterWins)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if res.State.StringField("status") != "CANCELLED" {
		t.Fatalf("LWW should keep later write, got %q", res.State.StringField("status"))
	}
	if res.LostOps != 2 {
		t.Fatalf("LostOps = %d, want 2 (whole losing side)", res.LostOps)
	}
	if len(res.ConflictFields) != 1 || res.ConflictFields[0] != "status" {
		t.Fatalf("ConflictFields = %v", res.ConflictFields)
	}
	// LWW drops the commutative delta: total is 0 in the merged state.
	if res.State.Float("total") != 0 {
		t.Fatalf("LWW unexpectedly preserved delta: %v", res.State.Float("total"))
	}
}

func TestMergeOperationReplayPreservesCommutativeOps(t *testing.T) {
	typ := orderType()
	key := entity.Key{Type: "Order", ID: "1"}
	base := entity.NewState(key)
	a := newVersion(t, typ, key, 1, "r1", clock.Timestamp{WallNanos: 100, Node: "r1"}, base, entity.Delta("total", 10), entity.InsertChild("lineitems", "L1", entity.Fields{"product": "widget"}))
	b := newVersion(t, typ, key, 1, "r2", clock.Timestamp{WallNanos: 200, Node: "r2"}, base, entity.Delta("total", 5), entity.InsertChild("lineitems", "L2", entity.Fields{"product": "gadget"}))
	res, err := Merge(typ, base, a, b, OperationReplay)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if res.LostOps != 0 {
		t.Fatalf("commutative merge should lose nothing, lost %d", res.LostOps)
	}
	if res.State.Float("total") != 15 {
		t.Fatalf("total = %v, want 15", res.State.Float("total"))
	}
	if len(res.State.LiveChildren("lineitems")) != 2 {
		t.Fatalf("children = %d, want 2", len(res.State.LiveChildren("lineitems")))
	}
}

func TestMergeOperationReplayRegisterConflict(t *testing.T) {
	typ := orderType()
	key := entity.Key{Type: "Order", ID: "1"}
	base := entity.NewState(key)
	a := newVersion(t, typ, key, 1, "r1", clock.Timestamp{WallNanos: 300, Node: "r1"}, base, entity.Set("status", "PAID"))
	b := newVersion(t, typ, key, 1, "r2", clock.Timestamp{WallNanos: 100, Node: "r2"}, base, entity.Set("status", "CANCELLED"))
	res, err := Merge(typ, base, a, b, OperationReplay)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	// Later stamp (a) wins the register; one op's effect is lost.
	if res.State.StringField("status") != "PAID" {
		t.Fatalf("status = %q, want PAID", res.State.StringField("status"))
	}
	if res.LostOps != 1 {
		t.Fatalf("LostOps = %d, want 1", res.LostOps)
	}
}

func TestMergeOperationReplayIsSymmetric(t *testing.T) {
	typ := orderType()
	key := entity.Key{Type: "Order", ID: "1"}
	base := entity.NewState(key)
	a := newVersion(t, typ, key, 1, "r1", clock.Timestamp{WallNanos: 100, Node: "r1"}, base, entity.Delta("total", 10), entity.Set("status", "PAID"))
	b := newVersion(t, typ, key, 1, "r2", clock.Timestamp{WallNanos: 200, Node: "r2"}, base, entity.Delta("total", 7), entity.Set("status", "SHIPPED"))
	ab, err := Merge(typ, base, a, b, OperationReplay)
	if err != nil {
		t.Fatalf("Merge ab: %v", err)
	}
	ba, err := Merge(typ, base, b, a, OperationReplay)
	if err != nil {
		t.Fatalf("Merge ba: %v", err)
	}
	if ab.State.Float("total") != ba.State.Float("total") || ab.State.StringField("status") != ba.State.StringField("status") {
		t.Fatalf("merge not symmetric: %v/%q vs %v/%q",
			ab.State.Float("total"), ab.State.StringField("status"),
			ba.State.Float("total"), ba.State.StringField("status"))
	}
}

func TestMergeUnknownStrategy(t *testing.T) {
	typ := orderType()
	key := entity.Key{Type: "Order", ID: "1"}
	base := entity.NewState(key)
	v := newVersion(t, typ, key, 1, "r1", clock.Timestamp{WallNanos: 1, Node: "r1"}, base, entity.Set("status", "X"))
	if _, err := Merge(typ, base, v, v, MergeStrategy(42)); err == nil {
		t.Fatal("unknown strategy should error")
	}
	if MergeStrategy(42).String() == "" || LastWriterWins.String() != "last-writer-wins" || OperationReplay.String() != "operation-replay" {
		t.Error("MergeStrategy names wrong")
	}
}

// Property: replay-merging two versions whose ops are all commutative deltas
// always sums both sides exactly, regardless of the amounts.
func TestMergeDeltaCommutativityProperty(t *testing.T) {
	typ := &entity.Type{Name: "Acct", Fields: []entity.Field{{Name: "balance", Type: entity.Float}}}
	key := entity.Key{Type: "Acct", ID: "1"}
	f := func(d1, d2 int16) bool {
		base := entity.NewState(key)
		a := &entity.Version{Key: key, Ops: []entity.Op{entity.Delta("balance", float64(d1))}, Stamp: clock.Timestamp{WallNanos: 10, Node: "a"}}
		var err error
		a.State, _, err = entity.Apply(typ, base, a.Ops, entity.Managed)
		if err != nil {
			return false
		}
		b := &entity.Version{Key: key, Ops: []entity.Op{entity.Delta("balance", float64(d2))}, Stamp: clock.Timestamp{WallNanos: 20, Node: "b"}}
		b.State, _, err = entity.Apply(typ, base, b.Ops, entity.Managed)
		if err != nil {
			return false
		}
		res, err := Merge(typ, base, a, b, OperationReplay)
		if err != nil {
			return false
		}
		return res.State.Float("balance") == float64(d1)+float64(d2) && res.LostOps == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestMergeWithContainerValues guards the conflict detector against the
// container op values SanitizeOps legitimizes: comparing two slice/map
// values with == panics at runtime, so conflictFields must deep-compare.
func TestMergeWithContainerValues(t *testing.T) {
	typ := orderType()
	key := entity.Key{Type: "Order", ID: "1"}
	base := entity.NewState(key)
	mk := func(node string, blob []interface{}, wall int64) *entity.Version {
		ops := []entity.Op{entity.Set("blob", blob)}
		st, _, err := entity.Apply(typ, base, ops, entity.Managed)
		if err != nil {
			t.Fatal(err)
		}
		return &entity.Version{Key: key, Ops: ops, State: st, Stamp: clock.Timestamp{WallNanos: wall, Node: clock.NodeID(node)}}
	}
	a := mk("r1", []interface{}{int64(1)}, 1)
	b := mk("r2", []interface{}{int64(2)}, 2)
	for _, strategy := range []MergeStrategy{LastWriterWins, OperationReplay} {
		res, err := Merge(typ, base, a, b, strategy)
		if err != nil {
			t.Fatalf("%v: %v", strategy, err)
		}
		if len(res.ConflictFields) != 1 || res.ConflictFields[0] != "blob" {
			t.Fatalf("%v: conflicts = %v, want [blob]", strategy, res.ConflictFields)
		}
	}
	// Equal container values are not a conflict.
	c := mk("r3", []interface{}{int64(1)}, 3)
	res, err := Merge(typ, base, a, c, OperationReplay)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ConflictFields) != 0 {
		t.Fatalf("equal containers reported as conflict: %v", res.ConflictFields)
	}
}
