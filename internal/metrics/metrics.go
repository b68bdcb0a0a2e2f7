// Package metrics provides time-series sampling and table formatting for
// the benchmark harness: throughput-over-time curves (Figures 9, 11), CPU
// breakdown tables (Figures 4, 8, 10, 12, 14) and paper-style row output.
package metrics

import (
	"fmt"
	"math"
	"strings"
	"unicode/utf8"

	"e2edt/internal/sim"
)

// Series is a named sequence of (time, value) samples.
type Series struct {
	Name   string
	Times  []float64
	Values []float64
}

// Add appends a sample.
func (s *Series) Add(t, v float64) {
	s.Times = append(s.Times, t)
	s.Values = append(s.Values, v)
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Values) }

// Mean returns the average value, 0 for an empty series.
func (s *Series) Mean() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.Values {
		sum += v
	}
	return sum / float64(len(s.Values))
}

// Min returns the smallest value, 0 for an empty series (matching
// Histogram.Min, and keeping ±Inf out of formatted report tables).
func (s *Series) Min() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	min := math.Inf(1)
	for _, v := range s.Values {
		if v < min {
			min = v
		}
	}
	return min
}

// Max returns the largest value, 0 for an empty series (matching
// Histogram.Max).
func (s *Series) Max() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	max := math.Inf(-1)
	for _, v := range s.Values {
		if v > max {
			max = v
		}
	}
	return max
}

// TailMean returns the mean of the last fraction of samples (e.g. 0.8 skips
// the first 20% as warm-up).
func (s *Series) TailMean(fraction float64) float64 {
	if fraction <= 0 || fraction > 1 || len(s.Values) == 0 {
		return s.Mean()
	}
	start := int(float64(len(s.Values)) * (1 - fraction))
	tail := Series{Values: s.Values[start:]}
	return tail.Mean()
}

// Sampler periodically samples a cumulative counter and records its rate of
// change (units/second).
type Sampler struct {
	Series   Series
	eng      *sim.Engine
	counter  func() float64
	last     float64
	lastTick sim.Time
	interval sim.Duration
	ticker   *sim.Ticker
	stopped  bool
}

// NewSampler starts sampling counter every interval on eng. The counter
// must be cumulative (e.g. total bytes transferred); the recorded value is
// the per-interval rate.
func NewSampler(eng *sim.Engine, name string, interval sim.Duration, counter func() float64) *Sampler {
	s := &Sampler{
		Series:   Series{Name: name},
		eng:      eng,
		counter:  counter,
		interval: interval,
	}
	s.last = counter()
	s.lastTick = eng.Now()
	s.ticker = eng.NewTicker(interval, func(now sim.Time) {
		cur := s.counter()
		s.Series.Add(float64(now), (cur-s.last)/float64(interval))
		s.last = cur
		s.lastTick = now
	})
	return s
}

// Stop halts sampling. A run that ends between ticks still owns the units
// moved since the last tick: Stop flushes them as a final partial-interval
// sample whose rate is scaled by the actually elapsed fraction, so tail
// throughput is not dropped from the recorded curve.
func (s *Sampler) Stop() {
	if s.stopped {
		return
	}
	s.stopped = true
	s.ticker.Stop()
	elapsed := float64(s.eng.Now() - s.lastTick)
	if elapsed <= 0 {
		return
	}
	cur := s.counter()
	s.Series.Add(float64(s.eng.Now()), (cur-s.last)/elapsed)
	s.last = cur
	s.lastTick = s.eng.Now()
}

// Table renders paper-style aligned rows.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row, padding or truncating to the header width.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	// Widths count runes, as %-*s pads by runes: cells such as "1.2×" or
	// "45 µs" hold more bytes than they print.
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if n := utf8.RuneCountInString(c); n > widths[i] {
				widths[i] = n
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Markdown renders the table as GitHub-flavoured markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "**%s**\n\n", t.Title)
	}
	row := func(cells []string) {
		b.WriteString("|")
		for _, c := range cells {
			b.WriteString(" " + c + " |")
		}
		b.WriteString("\n")
	}
	row(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = "---"
	}
	row(sep)
	for _, r := range t.Rows {
		row(r)
	}
	return b.String()
}
