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
		return KeyHash(k) == hash32(k.String())
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

// Locate and KeyShard read the published ring with no lock while units are
// added (run under -race). Every lookup stays answered: no error, no empty
// owner, no unit outside the set, and KeyShard never moves.
func TestLockFreeRoutingUnderTopologyChange(t *testing.T) {
	l := NewHashLocator(16)
	l.AddUnit("stable")
	ks := keys(64)
	shards := make([]int, len(ks))
	for i, k := range ks {
		shards[i] = KeyShard(k, 8)
	}
	known := map[UnitID]bool{"stable": true}
	for w := 0; w < 3; w++ {
		for round := 0; round < 20; round++ {
			known[UnitID(fmt.Sprintf("churn-%d-%d", w, round))] = true
		}
	}
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
					u, err := l.Locate(k)
					if err != nil || !known[u] {
						t.Errorf("Locate(%s) = %q, %v", k, u, err)
						return
					}
					if s := KeyShard(k, 8); s != shards[i] {
						t.Errorf("KeyShard(%s) moved: %d, was %d", k, s, shards[i])
						return
					}
				}
			}
		}()
	}
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for round := 0; round < 20; round++ {
				if err := l.AddUnit(UnitID(fmt.Sprintf("churn-%d-%d", w, round))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	for _, k := range ks {
		if u, err := l.Locate(k); err != nil || !known[u] {
			t.Fatalf("after the churn Locate(%s) = %q, %v", k, u, err)
		}
	}
}
