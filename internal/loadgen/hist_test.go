package loadgen

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// These tests cover the scoreboard's latency path: per-(scenario, class)
// cells recorded into metrics.Histogram and folded per class by Merged. The
// histogram's own bucket arithmetic is tested in internal/metrics.

// A known uniform load split across two scenarios merges back to its true
// percentile positions: never below, at most 2% above.
func TestHistQuantiles(t *testing.T) {
	res := newPhaseResult(Phase{Name: "p"})
	for i := 1; i <= 1000; i++ {
		scenario := "even"
		if i%2 == 1 {
			scenario = "odd"
		}
		res.bucket(scenario, Read).hist.Record(time.Duration(i) * time.Microsecond)
	}
	res.bucket("odd", Submit).hist.Record(time.Hour) // another class: not merged

	h := res.Merged(Read)
	if got := h.Summary().Count; got != 1000 {
		t.Fatalf("count = %d", got)
	}
	if got := h.Quantile(0); got != time.Microsecond {
		t.Fatalf("min = %v", got)
	}
	if got := h.Max(); got != time.Millisecond {
		t.Fatalf("max = %v", got)
	}
	checks := []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 500 * time.Microsecond},
		{0.99, 990 * time.Microsecond},
		{0.999, 999 * time.Microsecond},
	}
	for _, c := range checks {
		got := h.Quantile(c.q)
		if got < c.want {
			t.Fatalf("q%.3f = %v, below true value %v", c.q, got, c.want)
		}
		if float64(got-c.want) > float64(c.want)*0.02 {
			t.Fatalf("q%.3f = %v, more than 2%% above true value %v", c.q, got, c.want)
		}
	}
	if got, want := h.Summary().Mean, 500500*time.Nanosecond; got != want {
		t.Fatalf("mean = %v, want %v", got, want)
	}
}

// A negative latency (a clock step between send and receive) is scored as
// zero in the cell's row, not dropped and not wrapped to a huge value.
func TestHistNegativeClampsToZero(t *testing.T) {
	res := newPhaseResult(Phase{Name: "p"})
	res.bucket("s", Read).hist.Record(-time.Second)
	rows := res.Rows()
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	if l := rows[0].Latency; l.Count != 1 || l.Max != 0 || l.P999 != 0 {
		t.Fatalf("negative sample not clamped: %+v", l)
	}
}

// Workers racing to create and record into the same and different cells
// lose no sample.
func TestHistConcurrentRecord(t *testing.T) {
	res := newPhaseResult(Phase{Name: "p"})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				scenario := fmt.Sprintf("s%d", (w+i)%3)
				res.bucket(scenario, Query).hist.Record(time.Duration(w*1000+i) * time.Nanosecond)
			}
		}(w)
	}
	wg.Wait()
	if got := res.Merged(Query).Summary().Count; got != 80000 {
		t.Fatalf("count = %d after concurrent records", got)
	}
	var rowSum uint64
	for _, r := range res.Rows() {
		rowSum += r.Latency.Count
	}
	if rowSum != 80000 {
		t.Fatalf("rows hold %d samples, want 80000", rowSum)
	}
}
