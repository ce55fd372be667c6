package clock

import (
	"sync"
	"testing"
	"time"
)

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
		{a, b, before},
		{b, a, After},
		{a, c, before},
		{c, b, After},
		{a, d, before},
		{d, a, After},
	}
	for _, tc := range cases {
		if got := tc.x.Compare(tc.y); got != tc.want {
			t.Errorf("Compare(%v,%v) = %v, want %v", tc.x, tc.y, got, tc.want)
		}
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
	cases := map[Ordering]string{before: "before", Equal: "equal", After: "after"}
	for o, want := range cases {
		if o.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(o), o.String(), want)
		}
	}
	if Ordering(99).String() == "" {
		t.Error("unknown ordering should still render")
	}
}
