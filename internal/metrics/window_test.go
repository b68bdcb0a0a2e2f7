package metrics

import (
	"math"
	"testing"
)

func TestWindowedQuantileEmpty(t *testing.T) {
	w := NewWindowedQuantile(8)
	if w.Len() != 0 {
		t.Fatalf("empty window Len = %d", w.Len())
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if v := w.Quantile(q); v != 0 {
			t.Fatalf("empty window Quantile(%g) = %g, want 0", q, v)
		}
	}
}

func TestWindowedQuantileBasics(t *testing.T) {
	w := NewWindowedQuantile(16)
	for i := 1; i <= 10; i++ {
		w.Observe(float64(i))
	}
	if w.Len() != 10 {
		t.Fatalf("Len = %d, want 10", w.Len())
	}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.1, 1}, {0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10},
	}
	for _, c := range cases {
		if v := w.Quantile(c.q); v != c.want {
			t.Fatalf("Quantile(%g) = %g, want %g", c.q, v, c.want)
		}
	}
	// Out-of-range q clamps instead of panicking.
	if v := w.Quantile(-3); v != 1 {
		t.Fatalf("Quantile(-3) = %g, want min 1", v)
	}
	if v := w.Quantile(7); v != 10 {
		t.Fatalf("Quantile(7) = %g, want max 10", v)
	}
	if v := w.Quantile(math.NaN()); v != 1 {
		t.Fatalf("Quantile(NaN) = %g, want min 1", v)
	}
}

// TestWindowedQuantileDecay is the reason this type exists: once the sag
// regime has filled the window, the healthy history is fully forgotten —
// unlike the all-time Histogram, whose old mass would mask it.
func TestWindowedQuantileDecay(t *testing.T) {
	w := NewWindowedQuantile(4)
	for i := 0; i < 100; i++ {
		w.Observe(1) // a long healthy history
	}
	if v := w.Quantile(0.99); v != 1 {
		t.Fatalf("healthy p99 = %g, want 1", v)
	}
	// Regime change: latencies jump 10×.
	for i := 0; i < 4; i++ {
		w.Observe(10)
	}
	if v := w.Quantile(0.5); v != 10 {
		t.Fatalf("post-sag p50 = %g, want 10 (healthy history must be evicted)", v)
	}
	if v := w.Quantile(0); v != 10 {
		t.Fatalf("post-sag min = %g, want 10", v)
	}
	// Recovery decays the same way.
	for i := 0; i < 4; i++ {
		w.Observe(2)
	}
	if v := w.Quantile(1); v != 2 {
		t.Fatalf("post-recovery max = %g, want 2", v)
	}
}

func TestWindowedQuantilePartialWrap(t *testing.T) {
	w := NewWindowedQuantile(3)
	w.Observe(5)
	if v := w.Quantile(0.5); v != 5 {
		t.Fatalf("single sample p50 = %g, want 5", v)
	}
	w.Observe(1)
	w.Observe(9)
	w.Observe(7) // evicts the 5
	if v := w.Quantile(0); v != 1 {
		t.Fatalf("min = %g, want 1", v)
	}
	if v := w.Quantile(1); v != 9 {
		t.Fatalf("max = %g, want 9", v)
	}
	w.Reset()
	if w.Len() != 0 || w.Quantile(0.5) != 0 {
		t.Fatalf("Reset did not empty the window")
	}
}

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Value() != 0 || e.Samples() != 0 {
		t.Fatalf("fresh EWMA not zero")
	}
	e.Observe(8)
	if e.Value() != 8 {
		t.Fatalf("first observation must seed directly, got %g", e.Value())
	}
	e.Observe(0)
	if e.Value() != 4 {
		t.Fatalf("after 8,0 with alpha 0.5: %g, want 4", e.Value())
	}
	// Converges toward a new regime geometrically.
	for i := 0; i < 50; i++ {
		e.Observe(10)
	}
	if math.Abs(e.Value()-10) > 1e-9 {
		t.Fatalf("EWMA did not converge: %g", e.Value())
	}
	e.Reset()
	if e.Value() != 0 || e.Samples() != 0 {
		t.Fatalf("Reset did not clear")
	}
	e.Observe(3)
	if e.Value() != 3 {
		t.Fatalf("post-Reset first observation must seed, got %g", e.Value())
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"one", []float64{7}, 7},
		{"odd", []float64{5, 1, 3}, 3},
		{"even", []float64{4, 1, 3, 2}, 2.5},
	} {
		if got := Median(c.xs); got != c.want {
			t.Errorf("%s: Median = %g, want %g", c.name, got, c.want)
		}
	}
}
