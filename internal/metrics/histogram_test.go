package metrics

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// Every value must land in a bucket whose upper bound is >= the value and
// within the advertised ~1.6% relative error.
func TestHistogramBucketErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 100000; n++ {
		v := rng.Int63n(int64(10 * time.Minute))
		i := histIndex(v)
		upper := int64(histUpper(i))
		if upper < v {
			t.Fatalf("value %d landed in bucket %d with upper %d < value", v, i, upper)
		}
		if v >= histSubCount {
			if float64(upper-v) > float64(v)/float64(histSubCount)+1 {
				t.Fatalf("value %d bucket upper %d: relative error too large", v, upper)
			}
		}
	}
}

func TestHistogramBasicStats(t *testing.T) {
	h := NewHistogram()
	for _, d := range []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond} {
		h.Record(d)
	}
	if h.count() != 3 {
		t.Fatalf("Count = %d, want 3", h.count())
	}
	if h.mean() != 2*time.Millisecond {
		t.Fatalf("Mean = %v, want 2ms", h.mean())
	}
	if h.min() != time.Millisecond {
		t.Fatalf("Min = %v, want 1ms", h.min())
	}
	if h.Max() != 3*time.Millisecond {
		t.Fatalf("Max = %v, want 3ms", h.Max())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.count() != 0 || h.mean() != 0 || h.min() != 0 || h.Max() != 0 || h.Quantile(0.99) != 0 {
		t.Fatalf("empty histogram should report zeros: %v", h.Summary())
	}
}

// The q-quantile is the nearest-rank sample, the ceil(q·n)-th smallest, read
// at its bucket's upper bound: never a rank below it.
func TestHistogramQuantileNearestRank(t *testing.T) {
	series := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration(i+1) * time.Millisecond
		}
		return out
	}
	cases := []struct {
		name    string
		samples []time.Duration
		q       float64
		rank    int // 1-based rank of the nearest-rank sample
	}{
		{"p50 of 1..3ms", series(3), 0.50, 2},
		{"p95 of 1..10ms", series(10), 0.95, 10},
		{"p99 of 1..10ms", series(10), 0.99, 10},
		{"p99 of 1..150ms", series(150), 0.99, 149},
	}
	for _, c := range cases {
		h := NewHistogram()
		for _, d := range c.samples {
			h.Record(d)
		}
		want := c.samples[c.rank-1]
		got := h.Quantile(c.q)
		if got < want || float64(got-want) > float64(want)/histSubCount {
			t.Errorf("%s: got %v, want %v (within one bucket above)", c.name, got, want)
		}
	}
}

// Quantiles of a known uniform load sit at their true positions, in order,
// never below and at most one bucket (under 2%) above.
func TestHistogramQuantileOrdering(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	if got := h.count(); got != 1000 {
		t.Fatalf("count = %d", got)
	}
	if got := h.min(); got != time.Microsecond {
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
	prev := time.Duration(0)
	for _, c := range checks {
		got := h.Quantile(c.q)
		if got < c.want {
			t.Fatalf("q%.3f = %v, below true value %v", c.q, got, c.want)
		}
		if float64(got-c.want) > float64(c.want)*0.02 {
			t.Fatalf("q%.3f = %v, more than 2%% above true value %v", c.q, got, c.want)
		}
		if got < prev {
			t.Fatalf("q%.3f = %v below the previous quantile %v", c.q, got, prev)
		}
		prev = got
	}
	if got, want := h.mean(), 500500*time.Nanosecond; got != want {
		t.Fatalf("mean = %v, want %v", got, want)
	}
}

func TestHistogramQuantileBounds(t *testing.T) {
	h := NewHistogram()
	h.Record(5 * time.Millisecond)
	if got := h.Quantile(0); got != h.min() {
		t.Fatalf("Quantile(0) = %v, want Min %v", got, h.min())
	}
	if got := h.Quantile(2); got != 5*time.Millisecond {
		t.Fatalf("Quantile(>1) = %v, want it clamped to the max 5ms", got)
	}
}

func TestHistogramQuantileNeverExceedsMax(t *testing.T) {
	h := NewHistogram()
	h.Record(3 * time.Second)
	for _, q := range []float64{0.5, 0.99, 0.999, 1.0} {
		if got := h.Quantile(q); got != 3*time.Second {
			t.Fatalf("q%v = %v with a single 3s sample", q, got)
		}
	}
}

// Property: a quantile estimate lies between the recorded minimum and the
// recorded maximum.
func TestHistogramQuantileWithinBounds(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram()
		var maxSeen time.Duration
		for _, r := range raw {
			d := time.Duration(r) * time.Microsecond
			if d > maxSeen {
				maxSeen = d
			}
			h.Record(d)
		}
		for _, q := range []float64{0.5, 0.99, 0.999} {
			if v := h.Quantile(q); v < h.min() || v > maxSeen {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramNegativeDurationClamped(t *testing.T) {
	h := NewHistogram()
	h.Record(-time.Second)
	if h.count() != 1 || h.min() != 0 || h.Max() != 0 {
		t.Fatalf("negative sample not clamped: count=%d min=%v max=%v", h.count(), h.min(), h.Max())
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	a.Record(time.Millisecond)
	b.Record(10 * time.Millisecond)
	b.Record(100 * time.Microsecond)
	a.Merge(b)
	if a.count() != 3 {
		t.Fatalf("merged count = %d", a.count())
	}
	if a.min() != 100*time.Microsecond || a.Max() != 10*time.Millisecond {
		t.Fatalf("merged min/max = %v/%v", a.min(), a.Max())
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	const goroutines, per = 8, 10000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(time.Duration(g*per+i) * time.Nanosecond)
			}
		}(g)
	}
	wg.Wait()
	if h.count() != goroutines*per {
		t.Fatalf("Count = %d, want %d", h.count(), goroutines*per)
	}
	if h.Max() != goroutines*per-1 {
		t.Fatalf("Max = %v, want %v", h.Max(), time.Duration(goroutines*per-1))
	}
}

func TestSummaryString(t *testing.T) {
	h := NewHistogram()
	h.Record(time.Millisecond)
	s := h.Summary().String()
	for _, want := range []string{"n=1", "mean=1ms", "p50=1ms", "p99=1ms", "p999=1ms", "max=1ms"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary string %q missing %q", s, want)
		}
	}
}

// BenchmarkHistogramRecord is the cost every Kernel.Transact pays to record
// its latency, with all Ps recording into one histogram at once.
func BenchmarkHistogramRecord(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		d := time.Duration(0)
		for pb.Next() {
			d += 997 * time.Nanosecond
			h.Record(d % (50 * time.Millisecond))
		}
	})
}
