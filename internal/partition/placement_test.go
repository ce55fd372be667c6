package partition

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/entity"
)

// Property: the string-free key hash equals FNV-1a over key.String() for
// arbitrary Type and ID bytes, so Locate and KeyShard place every key where
// they did when they hashed the joined string.
func TestKeyHashMatchesStringHash(t *testing.T) {
	f := func(typ, id []byte) bool {
		k := entity.Key{Type: string(typ), ID: string(id)}
		return keyHash(k) == hash32(k.String())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func goldenKeys() []entity.Key {
	var out []entity.Key
	for i := 0; i < 200; i++ {
		out = append(out, entity.Key{Type: "Order", ID: fmt.Sprintf("O-%d", i)})
	}
	for i := 0; i < 100; i++ {
		out = append(out, entity.Key{Type: "Inventory", ID: fmt.Sprintf("item-%d", i)})
	}
	for i := 0; i < 100; i++ {
		out = append(out, entity.Key{Type: "Account", ID: fmt.Sprintf("A-%06d", i*7919)})
	}
	for i := 0; i < 50; i++ {
		out = append(out, entity.Key{Type: "Customer", ID: fmt.Sprintf("C-%x", i*104729)})
	}
	return append(out,
		entity.Key{},
		entity.Key{Type: "Order"},
		entity.Key{ID: "O-1"},
		entity.Key{Type: "a/b", ID: "c"},
		entity.Key{Type: "a", ID: "b/c"},
		entity.Key{Type: "Ω", ID: "\x00\xff\x7f"},
		entity.Key{Type: "Order", ID: "ünïcødé-🙂"},
	)
}

// testdata/placement.golden is Locate and KeyShard(key, 8) over goldenKeys,
// written by the string-hashing locator (mutex, owner map, hash32 of
// key.String()) for the unit names soupsd and the repository benchmark use.
// Placement decides which unit's log and which shard an entity lives in, so
// a data dir written before the lock-free ring must read back after it.
func TestPlacementGolden(t *testing.T) {
	soupsd, bench := NewHashLocator(64), NewHashLocator(64)
	for i := 0; i < 4; i++ {
		soupsd.AddUnit(UnitID(fmt.Sprintf("soupsd-u%d", i)))
		bench.AddUnit(UnitID(fmt.Sprintf("bench-u%d", i)))
	}
	f, err := os.Open("testdata/placement.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	keys := goldenKeys()
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		var typ, id string
		var wantSoupsd, wantBench UnitID
		var wantShard int
		if _, err := fmt.Sscanf(line, "%q %q %s %s %d", &typ, &id, &wantSoupsd, &wantBench, &wantShard); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		k := entity.Key{Type: typ, ID: id}
		if n >= len(keys) || keys[n] != k {
			t.Fatalf("golden row %d is %s; the key sample changed", n, k)
		}
		n++
		if u, _ := soupsd.Locate(k); u != wantSoupsd {
			t.Errorf("soupsd: Locate(%q) = %s, want %s", k, u, wantSoupsd)
		}
		if u, _ := bench.Locate(k); u != wantBench {
			t.Errorf("bench: Locate(%q) = %s, want %s", k, u, wantBench)
		}
		if s := KeyShard(k, 8); s != wantShard {
			t.Errorf("KeyShard(%q, 8) = %d, want %d", k, s, wantShard)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n != len(keys) {
		t.Fatalf("golden table has %d rows, key sample %d", n, len(keys))
	}
}

// unit-3296#7 and unit-3837#20 hash to the same ring point (4112604478), as
// do seven more of their virtual nodes.
// The later unit owns it; removing that unit must hand the point back to the
// one that remains, not leave it in the ring with no owner.
func TestHashLocatorCollidingPointsSurviveRemoval(t *testing.T) {
	if hash32("unit-3296#7") != hash32("unit-3837#20") {
		t.Fatal("the reproduction's virtual nodes no longer collide")
	}
	l := NewHashLocator(64)
	l.AddUnit("unit-3296")
	l.AddUnit("unit-3837")
	if err := l.RemoveUnit("unit-3837"); err != nil {
		t.Fatal(err)
	}
	orphans := 0
	for _, k := range keys(200000) {
		if u, err := l.Locate(k); err != nil || u != "unit-3296" {
			orphans++
		}
	}
	if orphans != 0 {
		t.Fatalf("%d of 200000 keys left unit-3296 after unit-3837 was removed", orphans)
	}
}

// Locate and KeyShard read the published ring with no lock while units come
// and go and keys are pinned (run under -race). A unit that is never removed
// keeps every lookup answered: no error, no empty owner, no unit outside the
// set, and KeyShard never moves.
func TestLockFreeRoutingUnderTopologyChange(t *testing.T) {
	l := NewHashLocator(16)
	l.AddUnit("stable")
	d := NewDirectory(l)
	ks := keys(64)
	shards := make([]int, len(ks))
	for i, k := range ks {
		shards[i] = KeyShard(k, 8)
	}
	known := map[UnitID]bool{"stable": true, "pinned": true, "churn-0": true, "churn-1": true, "churn-2": true}
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i, k := range ks {
					u, err := d.Locate(k)
					if err != nil || !known[u] {
						t.Errorf("Locate(%s) = %q, %v", k, u, err)
						return
					}
					if s := KeyShard(k, 8); s != shards[i] {
						t.Errorf("KeyShard(%s) moved: %d, was %d", k, s, shards[i])
						return
					}
				}
				if us := d.Units(); len(us) == 0 || len(us) > 4 {
					t.Errorf("Units() = %v", us)
					return
				}
			}
		}()
	}
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			u := UnitID(fmt.Sprintf("churn-%d", w))
			for round := 0; round < 100; round++ {
				if err := l.AddUnit(u); err != nil {
					t.Error(err)
					return
				}
				d.Pin(ks[w], "pinned")
				if err := l.RemoveUnit(u); err != nil {
					t.Error(err)
					return
				}
				d.Unpin(ks[w])
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	for _, k := range ks {
		if u, err := d.Locate(k); err != nil || u != "stable" {
			t.Fatalf("after the churn Locate(%s) = %q, %v; want stable", k, u, err)
		}
	}
}
