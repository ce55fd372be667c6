package partition

import (
	"errors"
	"fmt"
	"math/rand"
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
	// Every key lands on a unit of the ring, and both units own some.
	for _, k := range keys(50) {
		if u, err := l.Locate(k); err != nil || u != "u1" {
			t.Fatalf("Locate with one unit = %s, %v", u, err)
		}
	}
	if err := l.AddUnit("u2"); err != nil {
		t.Fatal(err)
	}
	owned := map[UnitID]int{}
	for _, k := range keys(200) {
		u, err := l.Locate(k)
		if err != nil || (u != "u1" && u != "u2") {
			t.Fatalf("Locate after adding u2 = %s, %v", u, err)
		}
		owned[u]++
	}
	if len(owned) != 2 {
		t.Fatalf("owners after adding u2 = %v, want both units", owned)
	}
}

func TestHashLocatorBalance(t *testing.T) {
	l := NewHashLocator(128)
	const units = 4
	for i := 0; i < units; i++ {
		l.AddUnit(UnitID(fmt.Sprintf("u%d", i)))
	}
	ks := keys(4000)
	dist := map[UnitID]int{}
	for _, k := range ks {
		u, err := l.Locate(k)
		if err != nil {
			t.Fatal(err)
		}
		dist[u]++
	}
	if len(dist) != units {
		t.Fatalf("some units received no keys: %v", dist)
	}
	for u, n := range dist {
		share := float64(n) / float64(len(ks))
		if share < 0.10 || share > 0.45 {
			t.Fatalf("unit %s share %.2f badly imbalanced: %v", u, share, dist)
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
	ks := keys(4000)
	moved := 0
	for _, k := range ks {
		b, err := before.Locate(k)
		if err != nil {
			t.Fatal(err)
		}
		a, err := after.Locate(k)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			moved++
		}
	}
	frac := float64(moved) / float64(len(ks))
	// Ideal is 1/5 = 0.20; consistent hashing should stay well below a naive
	// rehash (which would move ~0.8).
	if frac > 0.40 {
		t.Fatalf("relocated fraction %.2f too high for consistent hashing", frac)
	}
	if frac == 0 {
		t.Fatal("adding a unit should relocate some keys")
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

// Locate returns the unit owning the key, by name. The kernel reaches its
// units by Index; the placement and routing tests name them.
func (l *HashLocator) Locate(key entity.Key) (UnitID, error) {
	r := l.ring.Load()
	i, err := r.index(KeyHash(key))
	if err != nil {
		return "", err
	}
	return r.units[i], nil
}

// ShardOf's mask for a power-of-two n must place every key where the
// division does, or existing data directories and the golden WAL would read
// their entities from the wrong shard.
func TestShardOfEqualsModulo(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 64; n++ {
		for i := 0; i < 4096; i++ {
			hash := rng.Uint32()
			if got, want := ShardOf(hash, n), int(hash%uint32(n)); got != want {
				t.Fatalf("ShardOf(%#x, %d) = %d, want %d", hash, n, got, want)
			}
		}
	}
}

// KeyShard is the shard ShardOf gives key among n.
func KeyShard(key entity.Key, n int) int { return ShardOf(KeyHash(key), n) }
