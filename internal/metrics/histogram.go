package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// histSubBits is the log-linear resolution: each power-of-two magnitude is
// split into 2^histSubBits linear sub-buckets, bounding the relative
// quantile error at 2^-histSubBits (~1.6%). This is the HDR histogram
// layout: log-scaled magnitudes for range, linear sub-buckets for precision.
const histSubBits = 6

const histSubCount = 1 << histSubBits // 64

// histBuckets spans the whole non-negative int64 nanosecond range: one
// linear region below histSubCount plus one 64-slot row per magnitude.
const histBuckets = 64 * histSubCount

// Histogram is an HDR-style log-linear latency histogram: fixed memory,
// allocation-free lock-free recording, ~1.6% relative error on quantiles
// across the full nanosecond-to-minutes range. It records the node's own
// latencies (Registry.Histogram) and the load generator's client-side ones.
// The zero value is NOT ready; use NewHistogram.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	total  atomic.Uint64
	sum    atomic.Int64 // nanoseconds, for mean
	maxNs  atomic.Int64
	minNs  atomic.Int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.minNs.Store(math.MaxInt64)
	return h
}

// histIndex maps a nanosecond value to its bucket.
func histIndex(ns int64) int {
	v := uint64(ns)
	if v < histSubCount {
		return int(v)
	}
	// Normalise v into [histSubCount, 2*histSubCount) and index by
	// (magnitude row, linear offset within the row).
	shift := bits.Len64(v) - (histSubBits + 1)
	return (shift+1)*histSubCount + int(v>>uint(shift)) - histSubCount
}

// histUpper returns the inclusive upper bound of bucket i — the value
// quantiles report, so estimates err on the conservative (larger) side.
func histUpper(i int) time.Duration {
	if i < histSubCount {
		return time.Duration(i)
	}
	shift := i/histSubCount - 1
	off := uint64(i%histSubCount) + histSubCount
	return time.Duration(((off+1)<<uint(shift) - 1))
}

// Record adds one observation. Negative durations clamp to zero (a latency
// charged from an intended send time can never legitimately be negative;
// clock steps are clamped rather than dropped so counts stay honest).
func (h *Histogram) Record(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	h.counts[histIndex(ns)].Add(1)
	h.total.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.maxNs.Load()
		if ns <= cur || h.maxNs.CompareAndSwap(cur, ns) {
			break
		}
	}
	for {
		cur := h.minNs.Load()
		if ns >= cur || h.minNs.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// count returns the number of recorded observations.
func (h *Histogram) count() uint64 { return h.total.Load() }

// Max returns the largest recorded value, exactly (not bucket-rounded).
func (h *Histogram) Max() time.Duration {
	if h.count() == 0 {
		return 0
	}
	return time.Duration(h.maxNs.Load())
}

// min returns the smallest recorded value, exactly.
func (h *Histogram) min() time.Duration {
	if h.count() == 0 {
		return 0
	}
	return time.Duration(h.minNs.Load())
}

// mean returns the mean of all recorded values.
func (h *Histogram) mean() time.Duration {
	n := h.count()
	if n == 0 {
		return 0
	}
	return time.Duration(uint64(h.sum.Load()) / n)
}

// Quantile returns an upper-bound estimate of the q-quantile (0 < q <= 1):
// the upper bound of the bucket holding the nearest-rank sample, the
// ceil(q·n)-th smallest. The true max is substituted for the top bucket so
// p100 is exact.
func (h *Histogram) Quantile(q float64) time.Duration {
	n := h.count()
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min()
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(n)))
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		cum += c
		if cum >= target {
			upper := histUpper(i)
			if max := h.Max(); upper > max {
				return max
			}
			return upper
		}
	}
	return h.Max()
}

// Merge folds other's observations into h. Not linearisable against
// concurrent Records on other; merge quiesced histograms.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	for i := 0; i < histBuckets; i++ {
		if c := other.counts[i].Load(); c > 0 {
			h.counts[i].Add(c)
			h.total.Add(c)
		}
	}
	h.sum.Add(other.sum.Load())
	if om := other.maxNs.Load(); om > h.maxNs.Load() {
		h.maxNs.Store(om)
	}
	if om := other.minNs.Load(); om < h.minNs.Load() {
		h.minNs.Store(om)
	}
}

// Summary is the scoreboard row a histogram reduces to.
type Summary struct {
	Count               uint64
	Mean                time.Duration
	P50, P99, P999, Max time.Duration
}

// Summary returns the percentile summary the SLO scoreboard and /metrics
// report.
func (h *Histogram) Summary() Summary {
	return Summary{
		Count: h.count(),
		Mean:  h.mean(),
		P50:   h.Quantile(0.50),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
		Max:   h.Max(),
	}
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v p999=%v max=%v",
		s.Count, s.Mean.Round(time.Microsecond), s.P50.Round(time.Microsecond),
		s.P99.Round(time.Microsecond), s.P999.Round(time.Microsecond), s.Max.Round(time.Microsecond))
}
