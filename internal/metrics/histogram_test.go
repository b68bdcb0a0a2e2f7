package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(1e-6)
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty quantile should be 0")
	}
	for _, v := range []float64{1, 2, 3, 4, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Mean() != 3 {
		t.Fatalf("Mean = %v", h.Mean())
	}
	if h.Min() != 1 || h.Max() != 5 {
		t.Fatalf("Min/Max = %v/%v", h.Min(), h.Max())
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewHistogram(1e-6)
	rng := rand.New(rand.NewSource(7))
	var values []float64
	for i := 0; i < 20000; i++ {
		v := rng.ExpFloat64() * 0.01 // exponential latencies ~10ms
		values = append(values, v)
		h.Observe(v)
	}
	// Compare against exact quantiles within the 5% bucket growth plus
	// sampling slack.
	exact := func(q float64) float64 {
		cp := append([]float64(nil), values...)
		for i := range cp {
			for j := i + 1; j < len(cp); j++ {
				if cp[j] < cp[i] {
					cp[i], cp[j] = cp[j], cp[i]
				}
			}
			if float64(i) >= q*float64(len(cp)) {
				return cp[i]
			}
		}
		return cp[len(cp)-1]
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		got, want := h.Quantile(q), exact(q)
		if math.Abs(got-want)/want > 0.10 {
			t.Fatalf("q%v: got %v, want ≈%v", q, got, want)
		}
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	check := func(seed int64) bool {
		h := NewHistogram(1e-6)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 100; i++ {
			h.Observe(rng.Float64())
		}
		prev := 0.0
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return h.Quantile(0) == h.Min() && h.Quantile(1) == h.Max()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram(1)
	h.Observe(-5)
	if h.Min() != 0 {
		t.Fatalf("negative sample not clamped: %v", h.Min())
	}
}

func TestHistogramInvalidResolutionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHistogram(0)
}

func TestHistogramSingleSample(t *testing.T) {
	h := NewHistogram(1e-3)
	h.Observe(0.042)
	if h.Count() != 1 {
		t.Fatalf("Count = %d", h.Count())
	}
	// Every quantile of a one-sample distribution is that sample: the
	// bucket edge answer must be clamped to the observed extremes.
	for _, q := range []float64{0, 0.01, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0.042 {
			t.Fatalf("Quantile(%v) = %v, want the single sample 0.042", q, got)
		}
	}
	if h.Mean() != 0.042 || h.Min() != 0.042 || h.Max() != 0.042 {
		t.Fatalf("mean/min/max = %v/%v/%v", h.Mean(), h.Min(), h.Max())
	}
}

func TestHistogramQuantileExtremes(t *testing.T) {
	h := NewHistogram(1e-3)
	for _, v := range []float64{0.010, 0.020, 0.500, 3.000} {
		h.Observe(v)
	}
	// q=0 is the minimum, q=1 the maximum, exactly (not a bucket edge).
	if got := h.Quantile(0); got != 0.010 {
		t.Fatalf("Quantile(0) = %v, want min 0.010", got)
	}
	if got := h.Quantile(1); got != 3.000 {
		t.Fatalf("Quantile(1) = %v, want max 3.000", got)
	}
	// Out-of-range q clamps rather than panics or extrapolates.
	if got := h.Quantile(-0.5); got != 0.010 {
		t.Fatalf("Quantile(-0.5) = %v, want min", got)
	}
	if got := h.Quantile(1.5); got != 3.000 {
		t.Fatalf("Quantile(1.5) = %v, want max", got)
	}
}

func TestHistogramSubResolutionSamples(t *testing.T) {
	// Samples at or below the resolution all collapse into bucket 0; the
	// min/max clamp must still give exact answers.
	h := NewHistogram(1e-3)
	h.Observe(1e-5)
	h.Observe(2e-5)
	h.Observe(1e-3)
	if got := h.Quantile(0.5); got < 1e-5 || got > 1e-3 {
		t.Fatalf("Quantile(0.5) = %v outside observed range", got)
	}
	if h.Min() != 1e-5 || h.Max() != 1e-3 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
}

func TestHistogramZeroSample(t *testing.T) {
	h := NewHistogram(1e-3)
	h.Observe(0)
	if h.Count() != 1 || h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatal("zero sample mishandled")
	}
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("Quantile(0.99) = %v, want 0", got)
	}
}

// TestHistogramQuantileBoundaryCumulative pins the cumulative-walk rounding
// at exact rank boundaries: with an even split across two well-separated
// buckets, the median rank ⌈q·n⌉ falls in the LOWER bucket — an off-by-one
// in the target (floor instead of ceil, or a strict > comparison) would
// report the upper bucket. Verified correct; this keeps it that way.
func TestHistogramQuantileBoundaryCumulative(t *testing.T) {
	h := NewHistogram(1e-3)
	h.Observe(0.010)
	h.Observe(3.000)
	if got := h.Quantile(0.5); got >= 1.0 || got < 0.010 {
		t.Fatalf("two-sample median = %v, want the lower sample's bucket", got)
	}
	h2 := NewHistogram(1e-3)
	for _, v := range []float64{0.010, 0.010, 3.000, 3.000} {
		h2.Observe(v)
	}
	if got := h2.Quantile(0.5); got >= 1.0 {
		t.Fatalf("even-split median = %v, want the lower bucket", got)
	}
	if got := h2.Quantile(0.75); got < 1.0 {
		t.Fatalf("even-split p75 = %v, want the upper bucket", got)
	}
	if got := h2.Quantile(0.5); got < h2.Min() || got > h2.Max() {
		t.Fatalf("median %v escaped the observed range", got)
	}
}

// TestHistogramReserve: reserved buckets leave every answer unchanged, and
// observing up to the reserved bound does not grow the bucket array.
func TestHistogramReserve(t *testing.T) {
	plain, reserved := NewHistogram(0.5), NewHistogram(0.5)
	reserved.Reserve(1e5)
	for _, v := range []float64{0.1, 3, 47, 900, 2.5e4} {
		plain.Observe(v)
		reserved.Observe(v)
	}
	if p, r := plain.Count(), reserved.Count(); p != r {
		t.Fatalf("count %d with reserve, want %d", r, p)
	}
	if p, r := [3]float64{plain.Min(), plain.Mean(), plain.Max()},
		[3]float64{reserved.Min(), reserved.Mean(), reserved.Max()}; p != r {
		t.Fatalf("min/mean/max %v with reserve, want %v", r, p)
	}
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if p, r := plain.Quantile(q), reserved.Quantile(q); p != r {
			t.Fatalf("Quantile(%v) = %v with reserve, want %v", q, r, p)
		}
	}
	nonZero := func(h *Histogram) map[int]uint64 {
		m := make(map[int]uint64)
		for i, c := range h.counts {
			if c > 0 {
				m[i] = c
			}
		}
		return m
	}
	if p, r := nonZero(plain), nonZero(reserved); !reflect.DeepEqual(p, r) {
		t.Fatalf("buckets %v with reserve, want %v", r, p)
	}
	n := len(reserved.counts)
	reserved.Observe(1e5)
	if len(reserved.counts) != n {
		t.Fatalf("Observe at the reserved bound grew the buckets from %d to %d", n, len(reserved.counts))
	}
}
