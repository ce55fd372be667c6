package clock

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestLamportTickMonotonic(t *testing.T) {
	var l Lamport
	prev := l.Now()
	for i := 0; i < 100; i++ {
		v := l.Tick()
		if v <= prev {
			t.Fatalf("tick %d: got %d, want > %d", i, v, prev)
		}
		prev = v
	}
}

func TestLamportObserve(t *testing.T) {
	var l Lamport
	l.Tick() // 1
	got := l.Observe(10)
	if got != 11 {
		t.Fatalf("Observe(10) = %d, want 11", got)
	}
	got = l.Observe(5)
	if got != 12 {
		t.Fatalf("Observe(5) after 11 = %d, want 12", got)
	}
}

func TestLamportConcurrentTicksUnique(t *testing.T) {
	var l Lamport
	const goroutines, per = 8, 200
	seen := make(map[uint64]bool)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]uint64, 0, per)
			for i := 0; i < per; i++ {
				local = append(local, l.Tick())
			}
			mu.Lock()
			defer mu.Unlock()
			for _, v := range local {
				if seen[v] {
					t.Errorf("duplicate lamport value %d", v)
				}
				seen[v] = true
			}
		}()
	}
	wg.Wait()
	if len(seen) != goroutines*per {
		t.Fatalf("got %d unique values, want %d", len(seen), goroutines*per)
	}
}

func TestHLCMonotonicWithFrozenPhysicalClock(t *testing.T) {
	fixed := time.Unix(1000, 0)
	h := NewHLCWithSource("n1", func() time.Time { return fixed })
	prev := h.Now()
	for i := 0; i < 50; i++ {
		ts := h.Now()
		if ts.Compare(prev) != After {
			t.Fatalf("timestamp %v not after %v", ts, prev)
		}
		prev = ts
	}
}

func TestHLCObserveAdvancesPastRemote(t *testing.T) {
	fixed := time.Unix(1000, 0)
	h := NewHLCWithSource("n1", func() time.Time { return fixed })
	remote := Timestamp{WallNanos: fixed.UnixNano() + 500, Logical: 7, Node: "n2"}
	local := h.Observe(remote)
	if local.Compare(remote) != After {
		t.Fatalf("Observe result %v should be after remote %v", local, remote)
	}
	// A subsequent local event must still be after the receive event.
	next := h.Now()
	if next.Compare(local) != After {
		t.Fatalf("Now %v should be after observed %v", next, local)
	}
}

func TestHLCObserveBackwardPhysicalTime(t *testing.T) {
	now := time.Unix(2000, 0)
	h := NewHLCWithSource("n1", func() time.Time { return now })
	first := h.Now()
	// Physical clock goes backwards.
	now = time.Unix(1500, 0)
	second := h.Now()
	if second.Compare(first) != After {
		t.Fatalf("second %v should be after first %v despite clock regression", second, first)
	}
}

func TestTimestampCompareTotalOrder(t *testing.T) {
	a := Timestamp{WallNanos: 1, Logical: 0, Node: "a"}
	b := Timestamp{WallNanos: 1, Logical: 1, Node: "a"}
	c := Timestamp{WallNanos: 2, Logical: 0, Node: "a"}
	d := Timestamp{WallNanos: 1, Logical: 0, Node: "b"}
	cases := []struct {
		x, y Timestamp
		want Ordering
	}{
		{a, a, Equal},
		{a, b, Before},
		{b, a, After},
		{a, c, Before},
		{c, b, After},
		{a, d, Before},
		{d, a, After},
	}
	for _, tc := range cases {
		if got := tc.x.Compare(tc.y); got != tc.want {
			t.Errorf("Compare(%v,%v) = %v, want %v", tc.x, tc.y, got, tc.want)
		}
	}
}

func TestVersionVectorCompare(t *testing.T) {
	a := VersionVector{"x": 1, "y": 2}
	b := VersionVector{"x": 1, "y": 2}
	if a.Compare(b) != Equal {
		t.Fatalf("equal vectors not Equal")
	}
	b.Increment("x")
	if a.Compare(b) != Before {
		t.Fatalf("a should be Before b, got %v", a.Compare(b))
	}
	if b.Compare(a) != After {
		t.Fatalf("b should be After a, got %v", b.Compare(a))
	}
	a.Increment("y")
	if a.Compare(b) != Concurrent {
		t.Fatalf("a and b should be Concurrent, got %v", a.Compare(b))
	}
	if !a.Concurrent(b) {
		t.Fatal("Concurrent helper disagrees with Compare")
	}
}

func TestVersionVectorCompareMissingEntries(t *testing.T) {
	a := VersionVector{"x": 1}
	b := VersionVector{"y": 1}
	if a.Compare(b) != Concurrent {
		t.Fatalf("disjoint vectors should be concurrent, got %v", a.Compare(b))
	}
	empty := VersionVector{}
	if empty.Compare(a) != Before {
		t.Fatalf("empty vs non-empty should be Before, got %v", empty.Compare(a))
	}
	if a.Compare(empty) != After {
		t.Fatalf("non-empty vs empty should be After, got %v", a.Compare(empty))
	}
}

func TestVersionVectorMerge(t *testing.T) {
	a := VersionVector{"x": 3, "y": 1}
	b := VersionVector{"y": 5, "z": 2}
	m := a.Merged(b)
	want := VersionVector{"x": 3, "y": 5, "z": 2}
	for k, v := range want {
		if m[k] != v {
			t.Errorf("merged[%s] = %d, want %d", k, m[k], v)
		}
	}
	if !m.Dominates(a) || !m.Dominates(b) {
		t.Fatal("merge must dominate both inputs")
	}
}

func TestVersionVectorCloneIsIndependent(t *testing.T) {
	a := VersionVector{"x": 1}
	b := a.Clone()
	b.Increment("x")
	if a["x"] != 1 {
		t.Fatalf("clone mutation leaked into original: %v", a)
	}
}

func TestVersionVectorStringDeterministic(t *testing.T) {
	v := VersionVector{"b": 2, "a": 1, "c": 3}
	want := "{a:1,b:2,c:3}"
	if got := v.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// Property: merge is commutative, associative and idempotent (a join
// semilattice), which is what eventual convergence relies on.
func TestVersionVectorMergeLatticeProperties(t *testing.T) {
	gen := func(seed int64) VersionVector {
		v := VersionVector{}
		s := uint64(seed)
		for i := 0; i < 4; i++ {
			s = s*6364136223846793005 + 1442695040888963407
			node := NodeID(fmt.Sprintf("n%d", i))
			v[node] = s % 8
		}
		return v
	}
	commutative := func(s1, s2 int64) bool {
		a, b := gen(s1), gen(s2)
		return a.Merged(b).Compare(b.Merged(a)) == Equal
	}
	associative := func(s1, s2, s3 int64) bool {
		a, b, c := gen(s1), gen(s2), gen(s3)
		return a.Merged(b).Merged(c).Compare(a.Merged(b.Merged(c))) == Equal
	}
	idempotent := func(s1 int64) bool {
		a := gen(s1)
		return a.Merged(a).Compare(a) == Equal
	}
	if err := quick.Check(commutative, nil); err != nil {
		t.Errorf("merge not commutative: %v", err)
	}
	if err := quick.Check(associative, nil); err != nil {
		t.Errorf("merge not associative: %v", err)
	}
	if err := quick.Check(idempotent, nil); err != nil {
		t.Errorf("merge not idempotent: %v", err)
	}
}

func TestDVVNewWriteDescendsContext(t *testing.T) {
	ctx := VersionVector{"a": 2, "b": 1}
	d := NewDVV("a", ctx)
	if d.Dot.Counter != 3 {
		t.Fatalf("dot counter = %d, want 3", d.Dot.Counter)
	}
	older := DottedVersionVector{Dot: Dot{Node: "a", Counter: 2}, Context: VersionVector{"a": 1}}
	if !d.Descends(older) {
		t.Fatal("new write should descend older write it observed")
	}
	if d.Compare(older) != After {
		t.Fatalf("Compare = %v, want After", d.Compare(older))
	}
}

func TestDVVConcurrentSiblings(t *testing.T) {
	base := VersionVector{"a": 1}
	w1 := NewDVV("b", base) // b writes having seen a:1
	w2 := NewDVV("c", base) // c writes having seen a:1
	if w1.Compare(w2) != Concurrent {
		t.Fatalf("independent writes should be Concurrent, got %v", w1.Compare(w2))
	}
	// A third write that has seen both should dominate both.
	merged := w1.Join().Merged(w2.Join())
	w3 := NewDVV("a", merged)
	if w3.Compare(w1) != After || w3.Compare(w2) != After {
		t.Fatal("write with merged context should dominate both siblings")
	}
}

func TestDVVEqualSameDot(t *testing.T) {
	d := NewDVV("a", VersionVector{})
	if d.Compare(d) != Equal {
		t.Fatalf("same dot should compare Equal, got %v", d.Compare(d))
	}
}

func TestDVVJoinIncludesDot(t *testing.T) {
	d := NewDVV("a", VersionVector{"b": 4})
	j := d.Join()
	if j["a"] != d.Dot.Counter {
		t.Fatalf("join missing own dot: %v", j)
	}
	if j["b"] != 4 {
		t.Fatalf("join lost context: %v", j)
	}
}

func TestSequenceMonotonicAndConcurrent(t *testing.T) {
	var s Sequence
	const goroutines, per = 8, 500
	var wg sync.WaitGroup
	results := make([][]uint64, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				results[g] = append(results[g], s.Next())
			}
		}(g)
	}
	wg.Wait()
	seen := map[uint64]bool{}
	for _, r := range results {
		for i := 1; i < len(r); i++ {
			if r[i] <= r[i-1] {
				t.Fatalf("per-goroutine sequence not increasing: %d then %d", r[i-1], r[i])
			}
		}
		for _, v := range r {
			if seen[v] {
				t.Fatalf("duplicate id %d", v)
			}
			seen[v] = true
		}
	}
	if s.Peek() != goroutines*per {
		t.Fatalf("Peek = %d, want %d", s.Peek(), goroutines*per)
	}
}

func TestSequenceReserve(t *testing.T) {
	var s Sequence
	if first := s.Reserve(3); first != 1 {
		t.Fatalf("Reserve(3) = %d, want 1", first)
	}
	if got := s.Next(); got != 4 {
		t.Fatalf("Next after Reserve(3) = %d, want 4", got)
	}
	if first := s.Reserve(0); first != 5 {
		t.Fatalf("Reserve(0) = %d, want 5 (peek at next unissued)", first)
	}
	if got := s.Next(); got != 5 {
		t.Fatalf("Next after Reserve(0) = %d, want 5 (nothing consumed)", got)
	}
}

// TestSequenceReserveConcurrent checks that interleaved Reserve and Next
// calls hand out disjoint runs covering a dense range — the property the
// group-commit leader relies on for gap-free LSN assignment.
func TestSequenceReserveConcurrent(t *testing.T) {
	var s Sequence
	const goroutines, per, run = 8, 200, 5
	var wg sync.WaitGroup
	results := make([][]uint64, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if i%2 == 0 {
					first := s.Reserve(run)
					for j := 0; j < run; j++ {
						results[g] = append(results[g], first+uint64(j))
					}
				} else {
					results[g] = append(results[g], s.Next())
				}
			}
		}(g)
	}
	wg.Wait()
	seen := map[uint64]bool{}
	total := 0
	for _, r := range results {
		for _, id := range r {
			if seen[id] {
				t.Fatalf("id %d issued twice", id)
			}
			seen[id] = true
			total++
		}
	}
	for id := uint64(1); id <= uint64(total); id++ {
		if !seen[id] {
			t.Fatalf("id %d never issued: range not dense", id)
		}
	}
	if got := s.Peek(); got != uint64(total) {
		t.Fatalf("Peek = %d, want %d", got, total)
	}
}

func TestSequenceAdvanceTo(t *testing.T) {
	var s Sequence
	s.AdvanceTo(100)
	if got := s.Next(); got != 101 {
		t.Fatalf("Next after AdvanceTo(100) = %d, want 101", got)
	}
	s.AdvanceTo(50) // must not go backwards
	if got := s.Next(); got != 102 {
		t.Fatalf("Next after backwards AdvanceTo = %d, want 102", got)
	}
}

func TestOrderingString(t *testing.T) {
	cases := map[Ordering]string{Before: "before", Equal: "equal", After: "after", Concurrent: "concurrent"}
	for o, want := range cases {
		if o.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(o), o.String(), want)
		}
	}
	if Ordering(99).String() == "" {
		t.Error("unknown ordering should still render")
	}
}
