package partition

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/entity"
)

func keys(n int) []entity.Key {
	out := make([]entity.Key, n)
	for i := range out {
		out[i] = entity.Key{Type: "Order", ID: fmt.Sprintf("O-%06d", i)}
	}
	return out
}

func TestHashLocatorNoUnits(t *testing.T) {
	l := NewHashLocator(8)
	if _, err := l.Locate(entity.Key{Type: "Order", ID: "1"}); !errors.Is(err, ErrNoUnits) {
		t.Fatalf("want ErrNoUnits, got %v", err)
	}
}

func TestHashLocatorDeterministic(t *testing.T) {
	l := NewHashLocator(16)
	for i := 0; i < 4; i++ {
		l.AddUnit(UnitID(fmt.Sprintf("u%d", i)))
	}
	k := entity.Key{Type: "Order", ID: "O-42"}
	first, err := l.Locate(k)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		u, _ := l.Locate(k)
		if u != first {
			t.Fatalf("location changed between calls: %s vs %s", u, first)
		}
	}
}

func TestHashLocatorAddRemoveUnit(t *testing.T) {
	l := NewHashLocator(16)
	if err := l.AddUnit("u1"); err != nil {
		t.Fatal(err)
	}
	if err := l.AddUnit("u1"); !errors.Is(err, ErrDuplicateUnit) {
		t.Fatalf("want ErrDuplicateUnit, got %v", err)
	}
	if err := l.RemoveUnit("missing"); !errors.Is(err, ErrUnknownUnit) {
		t.Fatalf("want ErrUnknownUnit, got %v", err)
	}
	l.AddUnit("u2")
	if len(l.Units()) != 2 {
		t.Fatalf("Units = %v", l.Units())
	}
	if err := l.RemoveUnit("u1"); err != nil {
		t.Fatal(err)
	}
	// All keys must now land on u2.
	for _, k := range keys(50) {
		u, err := l.Locate(k)
		if err != nil || u != "u2" {
			t.Fatalf("Locate after removal = %s, %v", u, err)
		}
	}
}

func TestHashLocatorBalance(t *testing.T) {
	l := NewHashLocator(128)
	const units = 4
	for i := 0; i < units; i++ {
		l.AddUnit(UnitID(fmt.Sprintf("u%d", i)))
	}
	ks := keys(4000)
	dist, err := Distribution(l, ks)
	if err != nil {
		t.Fatal(err)
	}
	if len(dist) != units {
		t.Fatalf("some units received no keys: %s", FormatDistribution(dist))
	}
	for u, n := range dist {
		share := float64(n) / float64(len(ks))
		if share < 0.10 || share > 0.45 {
			t.Fatalf("unit %s share %.2f badly imbalanced: %s", u, share, FormatDistribution(dist))
		}
	}
}

func TestHashLocatorMinimalRelocationOnGrowth(t *testing.T) {
	before := NewHashLocator(128)
	after := NewHashLocator(128)
	for i := 0; i < 4; i++ {
		before.AddUnit(UnitID(fmt.Sprintf("u%d", i)))
		after.AddUnit(UnitID(fmt.Sprintf("u%d", i)))
	}
	after.AddUnit("u4")
	frac, err := RelocatedFraction(before, after, keys(4000))
	if err != nil {
		t.Fatal(err)
	}
	// Ideal is 1/5 = 0.20; consistent hashing should stay well below a naive
	// rehash (which would move ~0.8).
	if frac > 0.40 {
		t.Fatalf("relocated fraction %.2f too high for consistent hashing", frac)
	}
	if frac == 0 {
		t.Fatal("adding a unit should relocate some keys")
	}
}

func TestRangeLocator(t *testing.T) {
	l := NewRangeLocator("")
	if err := l.AddRange(Range{Type: "Order", From: "", To: "M", Unit: "u1"}); err != nil {
		t.Fatal(err)
	}
	if err := l.AddRange(Range{Type: "Order", From: "M", To: "", Unit: "u2"}); err != nil {
		t.Fatal(err)
	}
	u, err := l.Locate(entity.Key{Type: "Order", ID: "Apple"})
	if err != nil || u != "u1" {
		t.Fatalf("Locate(Apple) = %s, %v", u, err)
	}
	u, _ = l.Locate(entity.Key{Type: "Order", ID: "Zebra"})
	if u != "u2" {
		t.Fatalf("Locate(Zebra) = %s", u)
	}
	// Boundary: "M" belongs to the upper range.
	u, _ = l.Locate(entity.Key{Type: "Order", ID: "M"})
	if u != "u2" {
		t.Fatalf("Locate(M) = %s", u)
	}
	if _, err := l.Locate(entity.Key{Type: "Customer", ID: "C1"}); err == nil {
		t.Fatal("undeclared type without fallback should fail")
	}
	if len(l.Units()) != 2 {
		t.Fatalf("Units = %v", l.Units())
	}
}

func TestRangeLocatorFallback(t *testing.T) {
	l := NewRangeLocator("default-unit")
	u, err := l.Locate(entity.Key{Type: "Customer", ID: "C1"})
	if err != nil || u != "default-unit" {
		t.Fatalf("fallback = %s, %v", u, err)
	}
	units := l.Units()
	if len(units) != 1 || units[0] != "default-unit" {
		t.Fatalf("Units = %v", units)
	}
}

func TestRangeLocatorOverlapRejected(t *testing.T) {
	l := NewRangeLocator("")
	l.AddRange(Range{Type: "Order", From: "A", To: "M", Unit: "u1"})
	if err := l.AddRange(Range{Type: "Order", From: "G", To: "T", Unit: "u2"}); err == nil {
		t.Fatal("overlapping range accepted")
	}
	if err := l.AddRange(Range{Type: "Order", From: "M", To: "T", Unit: "u2"}); err != nil {
		t.Fatalf("adjacent range rejected: %v", err)
	}
	if err := l.AddRange(Range{Type: "Order", From: "B", To: "C", Unit: ""}); err == nil {
		t.Fatal("range without unit accepted")
	}
	// Open-ended overlap.
	if err := l.AddRange(Range{Type: "Order", From: "S", To: "", Unit: "u3"}); err == nil {
		t.Fatal("open-ended overlapping range accepted")
	}
}

func TestRangeLocatorSplit(t *testing.T) {
	l := NewRangeLocator("")
	l.AddRange(Range{Type: "Order", From: "", To: "", Unit: "u1"})
	if err := l.SplitRange("Order", "M", "u2"); err != nil {
		t.Fatalf("SplitRange: %v", err)
	}
	u, _ := l.Locate(entity.Key{Type: "Order", ID: "Apple"})
	if u != "u1" {
		t.Fatalf("lower half = %s", u)
	}
	u, _ = l.Locate(entity.Key{Type: "Order", ID: "Zebra"})
	if u != "u2" {
		t.Fatalf("upper half = %s", u)
	}
	if len(l.Ranges("Order")) != 2 {
		t.Fatalf("Ranges = %+v", l.Ranges("Order"))
	}
	if err := l.SplitRange("Customer", "M", "u3"); err == nil {
		t.Fatal("splitting a type with no ranges should fail")
	}
}

func TestDirectoryPinning(t *testing.T) {
	l := NewHashLocator(16)
	l.AddUnit("u1")
	l.AddUnit("u2")
	d := NewDirectory(l)
	k := entity.Key{Type: "Order", ID: "hot-entity"}
	natural, err := d.Locate(k)
	if err != nil {
		t.Fatal(err)
	}
	other := UnitID("u1")
	if natural == "u1" {
		other = "u2"
	}
	d.Pin(k, other)
	got, _ := d.Locate(k)
	if got != other {
		t.Fatalf("pin not honoured: %s", got)
	}
	if d.Moves() != 1 {
		t.Fatalf("Moves = %d", d.Moves())
	}
	// Re-pinning to the same unit does not count as a move.
	d.Pin(k, other)
	if d.Moves() != 1 {
		t.Fatalf("Moves after redundant pin = %d", d.Moves())
	}
	d.Unpin(k)
	got, _ = d.Locate(k)
	if got != natural {
		t.Fatalf("unpin did not restore natural placement: %s", got)
	}
	if len(d.Units()) != 2 {
		t.Fatalf("Units = %v", d.Units())
	}
}

// The pin table is published copy-on-write, so Locate takes no lock. Pinners
// and locators run at once (under -race): a key is always found on its
// natural unit or the one it is pinned to, never anywhere else, and once the
// last pin goes the table is nil again.
func TestDirectoryConcurrentPinAndLocate(t *testing.T) {
	l := NewHashLocator(16)
	l.AddUnit("u1")
	l.AddUnit("u2")
	d := NewDirectory(l)
	ks := keys(8)
	natural := make([]UnitID, len(ks))
	for i, k := range ks {
		natural[i], _ = l.Locate(k)
	}
	if d.overrides.Load() != nil {
		t.Fatal("a directory with no pins publishes a table")
	}
	var pinners, locators sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		locators.Add(1)
		go func() {
			defer locators.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i, k := range ks {
					if u, err := d.Locate(k); err != nil || (u != natural[i] && u != "pinned") {
						t.Errorf("Locate(%s) = %s, %v; want %s or pinned", k, u, err, natural[i])
						return
					}
				}
			}
		}()
	}
	for w := 0; w < 2; w++ {
		pinners.Add(1)
		go func(w int) {
			defer pinners.Done()
			for round := 0; round < 200; round++ {
				for i := w; i < len(ks); i += 2 {
					d.Pin(ks[i], "pinned")
				}
				for i := w; i < len(ks); i += 2 {
					d.Unpin(ks[i])
				}
			}
		}(w)
	}
	pinners.Wait()
	close(stop)
	locators.Wait()
	if d.overrides.Load() != nil {
		t.Fatal("the last Unpin left a table published")
	}
	if got := d.Moves(); got != 2*200*4 {
		t.Fatalf("Moves = %d, want %d", got, 2*200*4)
	}
}

func TestDirectorySameUnit(t *testing.T) {
	l := NewHashLocator(16)
	l.AddUnit("u1")
	d := NewDirectory(l)
	same, err := d.SameUnit(entity.Key{Type: "Order", ID: "1"}, entity.Key{Type: "Order", ID: "2"})
	if err != nil || !same {
		t.Fatalf("single unit: same=%v err=%v", same, err)
	}
	l2 := NewHashLocator(16)
	d2 := NewDirectory(l2)
	if _, err := d2.SameUnit(entity.Key{Type: "Order", ID: "1"}, entity.Key{Type: "Order", ID: "2"}); err == nil {
		t.Fatal("SameUnit with no units should fail")
	}
}

func TestDistributionError(t *testing.T) {
	l := NewHashLocator(8)
	if _, err := Distribution(l, keys(3)); err == nil {
		t.Fatal("Distribution with no units should fail")
	}
	if _, err := RelocatedFraction(l, l, keys(3)); err == nil {
		t.Fatal("RelocatedFraction with no units should fail")
	}
	frac, err := RelocatedFraction(l, l, nil)
	if err != nil || frac != 0 {
		t.Fatalf("empty key list: %v %v", frac, err)
	}
}

// Property: every key always locates to exactly one unit that is a member of
// the ring, for any non-empty set of units.
func TestHashLocatorTotalAssignmentProperty(t *testing.T) {
	f := func(nUnits uint8, ids []string) bool {
		n := int(nUnits%6) + 1
		l := NewHashLocator(32)
		members := map[UnitID]bool{}
		for i := 0; i < n; i++ {
			u := UnitID(fmt.Sprintf("u%d", i))
			l.AddUnit(u)
			members[u] = true
		}
		for _, id := range ids {
			u, err := l.Locate(entity.Key{Type: "T", ID: id})
			if err != nil || !members[u] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: range splitting never loses coverage — after any sequence of
// splits, every key still locates somewhere.
func TestRangeSplitCoverageProperty(t *testing.T) {
	f := func(splitPoints []string, probes []string) bool {
		l := NewRangeLocator("")
		l.AddRange(Range{Type: "T", From: "", To: "", Unit: "u0"})
		for i, sp := range splitPoints {
			if sp == "" {
				continue
			}
			// Splits at a point outside any range are rejected but must not
			// corrupt coverage.
			_ = l.SplitRange("T", sp, UnitID(fmt.Sprintf("u%d", i+1)))
		}
		for _, p := range probes {
			if _, err := l.Locate(entity.Key{Type: "T", ID: p}); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
