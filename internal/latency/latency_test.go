package latency

import (
	"math/rand"
	"sort"
	"testing"
)

func TestBucketRoundTrip(t *testing.T) {
	// lowerBound(bucketOf(v)) must never exceed v, and the bucket's width
	// must bound the error by 1/16 of the value.
	for _, v := range []uint64{0, 1, 15, 16, 17, 100, 1023, 1024, 1 << 20, 1<<40 + 12345, 1 << 62} {
		i := bucketOf(v)
		lo := lowerBound(i)
		if lo > v {
			t.Fatalf("v=%d: lower bound %d exceeds value", v, lo)
		}
		if i+1 < numBuckets {
			hi := lowerBound(i + 1)
			if hi <= v {
				t.Fatalf("v=%d: next bucket starts at %d, not after value", v, hi)
			}
			if v >= 16 && float64(hi-lo) > float64(v)/16+1 {
				t.Fatalf("v=%d: bucket width %d too coarse", v, hi-lo)
			}
		}
	}
	// Buckets are monotonically increasing.
	for i := 1; i < numBuckets; i++ {
		if lowerBound(i) <= lowerBound(i-1) {
			t.Fatalf("bucket %d lower bound not increasing", i)
		}
	}
}

func TestQuantilesAgainstSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h Histogram
	vals := make([]int64, 10000)
	for i := range vals {
		// Mix of scales: sub-µs, µs, ms.
		switch i % 3 {
		case 0:
			vals[i] = rng.Int63n(1000)
		case 1:
			vals[i] = rng.Int63n(100_000)
		default:
			vals[i] = rng.Int63n(50_000_000)
		}
		h.Record(vals[i])
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	if h.Count() != uint64(len(vals)) {
		t.Fatalf("count %d", h.Count())
	}
	if h.Min() != vals[0] || h.Max() != vals[len(vals)-1] {
		t.Fatalf("min/max %d/%d want %d/%d", h.Min(), h.Max(), vals[0], vals[len(vals)-1])
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		got := h.Quantile(q)
		exact := vals[int(q*float64(len(vals)))]
		// The histogram may under-report by at most one bucket width
		// (1/16 relative), never over-report past the exact rank value.
		if got > exact {
			t.Fatalf("q=%v: histogram %d above exact %d", q, got, exact)
		}
		if float64(exact-got) > float64(exact)/8+1 {
			t.Fatalf("q=%v: histogram %d too far below exact %d", q, got, exact)
		}
	}
}

func TestMergeExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var a, b, all Histogram
	for i := 0; i < 5000; i++ {
		v := rng.Int63n(1 << 30)
		all.Record(v)
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
	}
	var merged Histogram
	merged.Merge(&a)
	merged.Merge(&b)
	merged.Merge(nil)          // no-op
	merged.Merge(&Histogram{}) // empty no-op
	if merged != all {
		t.Fatal("merge not exact")
	}
}

func TestNegativeAndEmpty(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not zero")
	}
	h.Record(-5)
	if h.Count() != 1 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("negative record mishandled: %+v", h.Summarize())
	}
}

func TestRecordZeroAlloc(t *testing.T) {
	var h Histogram
	if n := testing.AllocsPerRun(1000, func() { h.Record(12345) }); n != 0 {
		t.Fatalf("Record: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = h.Quantile(0.99) }); n != 0 {
		t.Fatalf("Quantile: %v allocs/op, want 0", n)
	}
}

func BenchmarkRecord(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i) & 0xFFFFF)
	}
}

// Count returns how many durations have been recorded.
func (h *Histogram) Count() uint64 { return h.count }
