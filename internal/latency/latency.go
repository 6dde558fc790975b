// Package latency provides a fixed-footprint log-linear nanosecond
// histogram for hot-path latency measurement (the software analogue of the
// cycle counters an FPGA tick-to-trade pipeline exports). Record is O(1)
// and allocation-free, histograms merge exactly, and quantiles are
// nearest-rank over bucket lower bounds with ≤ 1/16 relative error — the
// HdrHistogram recipe sized for nanoseconds.
//
// A Histogram is not safe for concurrent use: give each recording
// goroutine its own and Merge them at read time.
package latency

import (
	"fmt"
	"math/bits"
)

// subBits sets the linear resolution inside each power of two: 2^subBits
// sub-buckets, i.e. ≤ 1/16 relative error with subBits = 4.
const subBits = 4

// numBuckets covers the full uint63 nanosecond range: values below
// 2^subBits get exact buckets, every further power of two gets 2^subBits.
const numBuckets = (64 - subBits) << subBits

// Histogram counts nanosecond durations in log-linear buckets. The zero
// value is an empty histogram ready to use.
type Histogram struct {
	counts [numBuckets]uint32
	count  uint64
	sum    uint64
	min    uint64
	max    uint64
}

// bucketOf maps a nanosecond value to its bucket index.
func bucketOf(v uint64) int {
	if v < 1<<subBits {
		return int(v)
	}
	exp := bits.Len64(v) - 1 - subBits
	return (exp << subBits) + int(v>>uint(exp))
}

// lowerBound is the smallest value mapping to bucket i (inverse of
// bucketOf), used as the reported quantile value.
func lowerBound(i int) uint64 {
	if i < 1<<subBits {
		return uint64(i)
	}
	exp := uint(i>>subBits - 1)
	mant := uint64(i&(1<<subBits-1)) | 1<<subBits
	return mant << exp
}

// Record adds one duration. Negative durations (clock steps) count as 0.
func (h *Histogram) Record(ns int64) {
	v := uint64(ns)
	if ns < 0 {
		v = 0
	}
	h.counts[bucketOf(v)]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Min returns the smallest recorded duration (0 when empty).
func (h *Histogram) Min() int64 { return int64(h.min) }

// Max returns the largest recorded duration (0 when empty).
func (h *Histogram) Max() int64 { return int64(h.max) }

// Mean returns the exact average of recorded durations (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns the nearest-rank q-quantile (q in [0,1]) as the lower
// bound of the bucket holding that rank; 0 when empty. Min and max are
// exact: q == 0 returns Min, q == 1 returns Max.
func (h *Histogram) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return int64(h.min)
	}
	if q >= 1 {
		return int64(h.max)
	}
	rank := uint64(q * float64(h.count))
	if rank >= h.count {
		rank = h.count - 1
	}
	var seen uint64
	for i := range h.counts {
		seen += uint64(h.counts[i])
		if seen > rank {
			return int64(lowerBound(i))
		}
	}
	return int64(h.max)
}

// Merge folds other into h. Histograms merge exactly: bucket counts, sum
// and extrema all add, so sharded per-goroutine recording loses nothing.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.count == 0 {
		return
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
	for i := range h.counts {
		h.counts[i] += other.counts[i]
	}
}

// Summary is a point-in-time digest of a histogram.
type Summary struct {
	Count               uint64
	Min, Max            int64 // exact, ns
	Mean                float64
	P50, P90, P99, P999 int64 // bucket lower bounds, ns
}

// Summarize digests the histogram into the percentiles the tick-path
// reports use.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count: h.count,
		Min:   h.Min(),
		Max:   h.Max(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
	}
}

// String formats the summary for logs.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%dns mean=%.0fns p50=%dns p90=%dns p99=%dns p99.9=%dns max=%dns",
		s.Count, s.Min, s.Mean, s.P50, s.P90, s.P99, s.P999, s.Max)
}
