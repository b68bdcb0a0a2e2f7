// Windowed and decayed estimators for gray-failure detection. The
// all-time Histogram in this package is the wrong tool for a detector: a
// rail that ran healthy for an hour and sagged a minute ago still shows a
// healthy all-time p99 — the recent sag is masked by the mass of old
// samples. Detectors need estimators that forget.
package metrics

import (
	"math"
	"sort"
)

// WindowedQuantile keeps the most recent window samples in a ring buffer
// and answers quantile queries over exactly that window. Old samples are
// evicted by arrival order, so the estimate tracks the current regime
// with a lag of at most one window. Deterministic: no sampling, no
// randomization — the same observation sequence yields the same answers.
type WindowedQuantile struct {
	buf     []float64
	next    int
	n       int
	scratch []float64
}

// NewWindowedQuantile returns an estimator over the last window samples.
func NewWindowedQuantile(window int) *WindowedQuantile {
	if window <= 0 {
		panic("metrics: WindowedQuantile window must be positive")
	}
	return &WindowedQuantile{buf: make([]float64, window)}
}

// Observe records one sample, evicting the oldest when the window is full.
func (w *WindowedQuantile) Observe(v float64) {
	w.buf[w.next] = v
	w.next = (w.next + 1) % len(w.buf)
	if w.n < len(w.buf) {
		w.n++
	}
}

// Len returns the number of samples currently in the window.
func (w *WindowedQuantile) Len() int { return w.n }

// Quantile returns the q-quantile (q in [0, 1], clamped) of the samples
// in the window: q=0 is the minimum, q=1 the maximum. An empty window
// returns 0 — callers gate on Len() before trusting the estimate.
func (w *WindowedQuantile) Quantile(q float64) float64 {
	if w.n == 0 {
		return 0
	}
	if math.IsNaN(q) || q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	// buf[:n] holds exactly the live samples whether or not the ring has
	// wrapped; sorting discards arrival order anyway.
	w.scratch = append(w.scratch[:0], w.buf[:w.n]...)
	sort.Float64s(w.scratch)
	idx := int(math.Ceil(q*float64(w.n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= w.n {
		idx = w.n - 1
	}
	return w.scratch[idx]
}

// Reset empties the window.
func (w *WindowedQuantile) Reset() {
	w.next, w.n = 0, 0
}

// EWMA is an exponentially-decayed mean: each observation contributes
// alpha, the standing estimate (1-alpha). The first observation seeds the
// estimate directly so a detector does not spend its early life averaging
// against zero.
type EWMA struct {
	alpha float64
	v     float64
	n     int
}

// NewEWMA returns a decayed mean with the given per-observation weight
// (0 < alpha <= 1; alpha=1 tracks the latest sample exactly).
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic("metrics: EWMA alpha must be in (0, 1]")
	}
	return &EWMA{alpha: alpha}
}

// Observe folds one sample into the estimate.
func (e *EWMA) Observe(v float64) {
	if e.n == 0 {
		e.v = v
	} else {
		e.v = e.alpha*v + (1-e.alpha)*e.v
	}
	e.n++
}

// Value returns the current estimate (0 before any observation).
func (e *EWMA) Value() float64 { return e.v }

// Samples returns how many observations have been folded in.
func (e *EWMA) Samples() int { return e.n }

// Reset forgets everything.
func (e *EWMA) Reset() { e.v, e.n = 0, 0 }

// Median returns the median of xs, averaging the middle pair for even
// lengths, and 0 for an empty slice. xs is scratch and may be reordered.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
