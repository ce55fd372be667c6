package loadgen

import (
	"testing"
	"time"
)

func TestUniformScheduleSpacing(t *testing.T) {
	start := time.Unix(0, 0)
	s := newSchedule(uniform, 1000, start, 1) // 1ms gaps
	prev := s.Next()
	if !prev.Equal(start) {
		t.Fatalf("first arrival %v, want start", prev)
	}
	for i := 0; i < 100; i++ {
		next := s.Next()
		if got := next.Sub(prev); got != time.Millisecond {
			t.Fatalf("gap %d = %v, want 1ms", i, got)
		}
		prev = next
	}
}

func TestPoissonScheduleMeanAndDeterminism(t *testing.T) {
	start := time.Unix(0, 0)
	const rate, n = 1000.0, 20000
	a := newSchedule(poisson, rate, start, 7)
	b := newSchedule(poisson, rate, start, 7)
	var last time.Time
	for i := 0; i < n; i++ {
		ta, tb := a.Next(), b.Next()
		if !ta.Equal(tb) {
			t.Fatalf("same seed diverged at arrival %d: %v vs %v", i, ta, tb)
		}
		if ta.Before(last) {
			t.Fatalf("arrival %d went backwards", i)
		}
		last = ta
	}
	// Mean inter-arrival over n samples should be close to 1/rate.
	mean := last.Sub(start) / time.Duration(n-1)
	want := time.Duration(float64(time.Second) / rate)
	if mean < want*9/10 || mean > want*11/10 {
		t.Fatalf("poisson mean gap %v, want within 10%% of %v", mean, want)
	}
}

func TestPoissonSeedsDiffer(t *testing.T) {
	start := time.Unix(0, 0)
	a := newSchedule(poisson, 100, start, 1)
	b := newSchedule(poisson, 100, start, 2)
	a.Next()
	b.Next()
	if a.Next().Equal(b.Next()) {
		t.Fatal("different seeds produced identical second arrival")
	}
}

// The schedule must never consult the wall clock: a stalled consumer sees
// intended times fall further and further behind real time rather than the
// schedule sliding forward (that slide is coordinated omission).
func TestScheduleIgnoresWallClock(t *testing.T) {
	start := time.Now().Add(-time.Hour) // an hour of backlog
	s := newSchedule(uniform, 10, start, 1)
	first := s.Next()
	if !first.Equal(start) {
		t.Fatalf("schedule shifted its start: %v", first)
	}
	time.Sleep(5 * time.Millisecond)
	second := s.Next()
	if got := second.Sub(first); got != 100*time.Millisecond {
		t.Fatalf("gap changed to %v after consumer stall", got)
	}
}

func TestParseArrival(t *testing.T) {
	if a, err := ParseArrival("poisson"); err != nil || a != poisson {
		t.Fatalf("ParseArrival(poisson) = %v, %v", a, err)
	}
	if a, err := ParseArrival("Uniform"); err != nil || a != uniform {
		t.Fatalf("ParseArrival(Uniform) = %v, %v", a, err)
	}
	if _, err := ParseArrival("bursty"); err == nil {
		t.Fatal("ParseArrival(bursty) did not error")
	}
}
