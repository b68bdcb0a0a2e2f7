package metrics

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"e2edt/internal/sim"
)

func TestSeriesStats(t *testing.T) {
	var s Series
	for i, v := range []float64{1, 2, 3, 4, 5} {
		s.Add(float64(i), v)
	}
	if s.Len() != 5 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Mean() != 3 {
		t.Fatalf("Mean = %v", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
}

func TestEmptySeries(t *testing.T) {
	var s Series
	if s.Mean() != 0 {
		t.Fatal("empty mean should be 0")
	}
	if s.Min() != 0 || s.Max() != 0 {
		// Matching Histogram.Min/Max: 0, never ±Inf, so report tables
		// built from empty series stay printable.
		t.Fatalf("empty min/max = %v/%v, want 0/0", s.Min(), s.Max())
	}
	if s.TailMean(0.5) != 0 {
		t.Fatal("empty tail mean should be 0")
	}
}

// TestEmptySeriesTableHasNoInf: an empty series summarized into a report
// table (the experiments Series index format) must not leak Inf cells.
func TestEmptySeriesTableHasNoInf(t *testing.T) {
	s := Series{Name: "tput"}
	tb := Table{Headers: []string{"series", "n", "mean", "min", "max"}}
	tb.AddRow(s.Name, fmt.Sprintf("%d", s.Len()),
		fmt.Sprintf("%.3f", s.Mean()), fmt.Sprintf("%.3f", s.Min()),
		fmt.Sprintf("%.3f", s.Max()))
	for _, out := range []string{tb.String(), tb.Markdown()} {
		if strings.Contains(out, "Inf") || strings.Contains(out, "inf") {
			t.Fatalf("Inf leaked into formatted table:\n%s", out)
		}
	}
}

func TestTailMean(t *testing.T) {
	var s Series
	// Warm-up of zeros then steady 10s.
	for i := 0; i < 5; i++ {
		s.Add(float64(i), 0)
	}
	for i := 5; i < 10; i++ {
		s.Add(float64(i), 10)
	}
	if got := s.TailMean(0.5); got != 10 {
		t.Fatalf("TailMean(0.5) = %v, want 10", got)
	}
	if got := s.TailMean(1); got != 5 {
		t.Fatalf("TailMean(1) = %v, want 5", got)
	}
	if got := s.TailMean(0); got != s.Mean() {
		t.Fatal("invalid fraction should fall back to Mean")
	}
}

func TestSamplerRates(t *testing.T) {
	eng := sim.NewEngine()
	bytes := 0.0
	// Simulated producer: 100 units/s in steps.
	eng.NewTicker(0.1, func(sim.Time) { bytes += 10 })
	s := NewSampler(eng, "tput", 1, func() float64 { return bytes })
	eng.RunUntil(10)
	s.Stop()
	if s.Series.Len() != 10 {
		t.Fatalf("samples = %d, want 10", s.Series.Len())
	}
	// Producer ticks can land exactly on sample boundaries, so individual
	// samples may be off by one 10-unit step; the aggregate must balance.
	sum := 0.0
	for i, v := range s.Series.Values {
		if math.Abs(v-100) > 10+1e-9 {
			t.Fatalf("sample %d = %v, want 100±10", i, v)
		}
		sum += v
	}
	if math.Abs(sum-1000) > 10+1e-9 {
		t.Fatalf("integrated volume = %v, want ≈1000", sum)
	}
}

// TestSamplerFlushesFinalPartialInterval: a run ending between ticker
// fires used to drop every byte moved after the last fire, under-reporting
// tail throughput. Stop now records the partial interval with the rate
// scaled by the actually elapsed fraction.
func TestSamplerFlushesFinalPartialInterval(t *testing.T) {
	eng := sim.NewEngine()
	bytes := 0.0
	eng.NewTicker(0.1, func(sim.Time) { bytes += 10 }) // 100 units/s
	s := NewSampler(eng, "tput", 1, func() float64 { return bytes })
	// Stop mid-interval: 3 full intervals plus 0.5s of tail.
	eng.RunUntil(3.5)
	s.Stop()
	if got := s.Series.Len(); got != 4 {
		t.Fatalf("samples = %d, want 3 full + 1 partial", got)
	}
	lastT := s.Series.Times[3]
	lastV := s.Series.Values[3]
	if lastT != 3.5 {
		t.Fatalf("final sample at t=%v, want 3.5", lastT)
	}
	// 50 units moved over the final 0.5s → still 100 units/s, not the 50
	// units/s that interval-scaled accounting would report.
	if math.Abs(lastV-100) > 10+1e-9 {
		t.Fatalf("final partial-interval rate = %v, want ≈100", lastV)
	}
	// Integrated volume must cover every byte moved, including the tail.
	sum := 0.0
	for i, v := range s.Series.Values {
		dt := 1.0
		if i == 3 {
			dt = 0.5
		}
		sum += v * dt
	}
	if math.Abs(sum-bytes) > 10+1e-9 {
		t.Fatalf("integrated volume = %v, want %v (no tail drop)", sum, bytes)
	}
	// Stop is idempotent: no double flush.
	s.Stop()
	if s.Series.Len() != 4 {
		t.Fatal("second Stop added a sample")
	}
}

// TestSamplerStopOnTickBoundaryAddsNothing: stopping exactly on a tick
// leaves no partial interval to flush.
func TestSamplerStopOnTickBoundaryAddsNothing(t *testing.T) {
	eng := sim.NewEngine()
	v := 0.0
	eng.NewTicker(0.25, func(sim.Time) { v += 1 })
	s := NewSampler(eng, "x", 1, func() float64 { return v })
	eng.RunUntil(3)
	s.Stop()
	if s.Series.Len() != 3 {
		t.Fatalf("samples = %d, want 3 (no zero-length flush)", s.Series.Len())
	}
}

func TestSamplerStops(t *testing.T) {
	eng := sim.NewEngine()
	s := NewSampler(eng, "x", 1, func() float64 { return 0 })
	eng.RunUntil(3)
	s.Stop()
	n := s.Series.Len()
	eng.RunUntil(10)
	if s.Series.Len() != n {
		t.Fatal("sampler kept sampling after Stop")
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{Title: "Figure X", Headers: []string{"block", "Gbps"}}
	tb.AddRow("4MB", "39.1")
	tb.AddRow("64KB", "12.0")
	out := tb.String()
	if !strings.Contains(out, "Figure X") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "block") || !strings.Contains(out, "Gbps") {
		t.Fatal("missing headers")
	}
	if !strings.Contains(out, "4MB") || !strings.Contains(out, "12.0") {
		t.Fatal("missing cells")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
}

// TestTableMultiByteCellsAlign: columns are as wide as their widest cell
// in printed runes, not bytes, so a cell holding ×, µ or — gets no extra
// padding and every column starts where its header does.
func TestTableMultiByteCellsAlign(t *testing.T) {
	tb := Table{Headers: []string{"ratio", "lat", "note"}}
	tb.AddRow("1.2×", "45 µs", "a")
	tb.AddRow("10.25", "—", "b")
	want := "" +
		"ratio  lat    note\n" +
		"-----  -----  ----\n" +
		"1.2×   45 µs  a   \n" +
		"10.25  —      b   \n"
	if got := tb.String(); got != want {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}
}

func TestTableShortRowPadded(t *testing.T) {
	tb := Table{Headers: []string{"a", "b", "c"}}
	tb.AddRow("only")
	if len(tb.Rows[0]) != 3 {
		t.Fatal("row not padded to header width")
	}
}

func TestTableMarkdown(t *testing.T) {
	tb := Table{Title: "T", Headers: []string{"a", "b"}}
	tb.AddRow("1", "2")
	out := tb.Markdown()
	if !strings.Contains(out, "**T**") {
		t.Fatal("missing bold title")
	}
	if !strings.Contains(out, "| a | b |") || !strings.Contains(out, "| --- | --- |") {
		t.Fatalf("markdown header wrong:\n%s", out)
	}
	if !strings.Contains(out, "| 1 | 2 |") {
		t.Fatalf("markdown row wrong:\n%s", out)
	}
}
