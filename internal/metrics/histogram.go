package metrics

import "math"

// Histogram collects samples into logarithmic buckets for quantile
// estimation — used for per-command latency distributions in the fio
// harness. Buckets grow by a fixed ratio from a minimum resolution, so
// memory stays constant regardless of sample count while relative error
// stays bounded by the growth ratio.
type Histogram struct {
	// unit is the smallest distinguishable value (bucket 0's upper edge).
	unit float64
	// growth is the bucket edge ratio (> 1).
	growth float64
	counts []uint64
	total  uint64
	sum    float64
	min    float64
	max    float64
}

// NewHistogram creates a histogram with the given resolution (smallest
// meaningful value) and 5% default bucket growth.
func NewHistogram(resolution float64) *Histogram {
	if resolution <= 0 {
		panic("metrics: histogram resolution must be positive")
	}
	return &Histogram{
		unit:   resolution,
		growth: 1.05,
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

// bucketFor maps a value to its bucket index.
func (h *Histogram) bucketFor(v float64) int {
	if v <= h.unit {
		return 0
	}
	return 1 + int(math.Log(v/h.unit)/math.Log(h.growth))
}

// edge returns the upper edge of bucket i.
func (h *Histogram) edge(i int) float64 {
	if i == 0 {
		return h.unit
	}
	return h.unit * math.Pow(h.growth, float64(i))
}

// Reserve sizes the buckets for samples up to max, so observing them never
// grows the bucket array. Quantiles and counts are unaffected.
func (h *Histogram) Reserve(max float64) {
	if n := h.bucketFor(max) + 1; n > len(h.counts) {
		h.counts = append(h.counts, make([]uint64, n-len(h.counts))...)
	}
}

// Observe records one sample. Negative samples are clamped to zero.
func (h *Histogram) Observe(v float64) {
	if v < 0 {
		v = 0
	}
	i := h.bucketFor(v)
	for len(h.counts) <= i {
		h.counts = append(h.counts, 0)
	}
	h.counts[i]++
	h.total++
	h.sum += v
	h.min = math.Min(h.min, v)
	h.max = math.Max(h.max, v)
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.total }

// Mean returns the sample mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Min and Max return the extreme samples (0 when empty).
func (h *Histogram) Min() float64 {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest sample (0 when empty).
func (h *Histogram) Max() float64 {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Quantile returns the value at quantile q ∈ [0,1], with bucket-resolution
// accuracy. Empty histograms return 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.Max()
	}
	target := uint64(math.Ceil(q * float64(h.total)))
	var acc uint64
	for i, c := range h.counts {
		acc += c
		if acc >= target {
			e := h.edge(i)
			// Clamp to observed extremes for tighter small-sample answers.
			return math.Min(math.Max(e, h.min), h.max)
		}
	}
	return h.Max()
}
