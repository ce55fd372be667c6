package loadgen

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"
)

// Arrival selects the inter-arrival distribution of the open-loop
// schedule.
type Arrival int

const (
	// uniform spaces arrivals exactly 1/rate apart — the least bursty
	// offered load, useful for isolating the system's own queueing.
	uniform Arrival = iota
	// poisson draws exponential inter-arrival gaps with mean 1/rate — the
	// memoryless arrival process of independent users, so natural bursts
	// probe the system's headroom the way production traffic does.
	poisson
)

// String names the arrival process.
func (a Arrival) String() string {
	if a == poisson {
		return "poisson"
	}
	return "uniform"
}

// ParseArrival maps a flag value onto an arrival process.
func ParseArrival(s string) (Arrival, error) {
	switch strings.ToLower(s) {
	case "uniform":
		return uniform, nil
	case "poisson":
		return poisson, nil
	}
	return uniform, fmt.Errorf("loadgen: unknown arrival process %q (want uniform or poisson)", s)
}

// schedule produces the intended send time of every request in an open-loop
// run. The sequence is fixed by (arrival, rate, seed) alone — the system
// under test cannot slow it down, which is what makes latencies measured
// from these times coordinated-omission-safe.
//
// A schedule is single-consumer: only the pacing loop calls Next.
type schedule struct {
	arrival Arrival
	mean    float64 // mean gap in nanoseconds
	rng     *rand.Rand
	next    time.Time
}

// newSchedule creates a schedule issuing rate arrivals per second starting
// at start. Seed fixes the Poisson gap sequence; Uniform ignores it.
func newSchedule(arrival Arrival, rate float64, start time.Time, seed int64) *schedule {
	if rate <= 0 {
		rate = 1
	}
	return &schedule{
		arrival: arrival,
		mean:    float64(time.Second) / rate,
		rng:     rand.New(rand.NewSource(seed)),
		next:    start,
	}
}

// Next returns the next intended send time. Times are strictly derived from
// the schedule's own sequence; they never observe the wall clock, so a
// stalled consumer accumulates a backlog of past-due intended times instead
// of quietly pausing the offered load.
func (s *schedule) Next() time.Time {
	t := s.next
	gap := s.mean
	if s.arrival == poisson {
		// Exponential inter-arrival: -ln(U) * mean, U in (0, 1].
		u := s.rng.Float64()
		if u <= 0 {
			u = math.SmallestNonzeroFloat64
		}
		gap = -math.Log(u) * s.mean
	}
	if gap < 1 {
		gap = 1
	}
	s.next = t.Add(time.Duration(gap))
	return t
}
