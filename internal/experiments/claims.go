package experiments

import (
	"math"
	"strconv"
	"strings"

	"e2edt/internal/metrics"
	"e2edt/internal/trace"
)

// Claim is one paper figure or scenario gate, declared next to the
// experiment that measures it and checked as an inclusive band. Boolean
// gates measure 1 (held) or 0 against [1, 1]; monotone checks measure the
// extreme step ratio of their series (minStep, maxStep).
type Claim struct {
	// Quantity names what is measured, with its unit.
	Quantity string
	// Paper is the paper's value; empty for a scenario gate.
	Paper string
	// Measured is the reproduced value.
	Measured float64
	// Lo and Hi bound Measured inclusively; ±Inf leaves a side open. A
	// strict "> x" bound is written over(x).
	Lo, Hi float64
}

// OK reports whether Measured lies in [Lo, Hi]; NaN never does.
func (c Claim) OK() bool { return c.Measured >= c.Lo && c.Measured <= c.Hi }

// Band renders the bounds: "[lo, hi]", ">= lo", "<= hi" or "= v", with
// "(" and ">" for a strict lower bound.
func (c Claim) Band() string {
	lo, open := num(c.Lo), "["
	if below := math.Nextafter(c.Lo, -inf); !math.IsInf(c.Lo, 0) && below == math.Round(below*1000)/1000 {
		lo, open = num(below), "("
	}
	switch {
	case c.Lo == c.Hi:
		return "= " + lo
	case math.IsInf(c.Hi, 1) && open == "(":
		return "> " + lo
	case math.IsInf(c.Hi, 1):
		return ">= " + lo
	case math.IsInf(c.Lo, -1):
		return "<= " + num(c.Hi)
	}
	return open + lo + ", " + num(c.Hi) + "]"
}

// num renders a measurement or bound with at most three decimals.
func num(x float64) string {
	s := strconv.FormatFloat(x, 'f', 3, 64)
	if !strings.Contains(s, ".") { // ±Inf, NaN
		return s
	}
	return strings.TrimSuffix(strings.TrimRight(s, "0"), ".")
}

// inf is the open upper bound.
var inf = math.Inf(1)

// over is the inclusive form of the strict bound "> x". Use it only for x
// with at most three decimals, so Band can render it.
func over(x float64) float64 { return math.Nextafter(x, inf) }

// gate declares a boolean claim: 1 when ok, checked against [1, 1].
func gate(quantity string, ok bool) Claim {
	c := Claim{Quantity: quantity, Lo: 1, Hi: 1}
	if ok {
		c.Measured = 1
	}
	return c
}

// sameTrace is the replay gate: two runs of one seed traced something and
// hashed to the same digest.
func sameTrace(a, b *trace.Hasher) bool { return a.Events() > 0 && a.Sum() == b.Sum() }

// minStep is the smallest ratio of consecutive values: the series never
// falls by more than a factor f when minStep(v) ≥ f.
func minStep(v []float64) float64 {
	m := inf
	for i := 1; i < len(v); i++ {
		m = math.Min(m, v[i]/v[i-1])
	}
	return m
}

// maxStep is the largest ratio of consecutive values: the series never
// rises by more than a factor f when maxStep(v) ≤ f.
func maxStep(v []float64) float64 {
	m := -inf
	for i := 1; i < len(v); i++ {
		m = math.Max(m, v[i]/v[i-1])
	}
	return m
}

// yesNo renders a per-row check in a table.
func yesNo(ok bool) string {
	if ok {
		return "yes"
	}
	return "no"
}

// Failed returns the claims whose measurement falls outside their band.
func (r Result) Failed() []Claim {
	var out []Claim
	for _, c := range r.Claims {
		if !c.OK() {
			out = append(out, c)
		}
	}
	return out
}

// ClaimTable renders the claims, one row each.
func (r Result) ClaimTable() metrics.Table {
	tb := metrics.Table{
		Title:   "claims",
		Headers: []string{"quantity", "paper", "measured", "band", "check"},
	}
	for _, c := range r.Claims {
		check := "ok"
		if !c.OK() {
			check = "FAIL"
		}
		tb.AddRow(c.Quantity, c.Paper, num(c.Measured), c.Band(), check)
	}
	return tb
}
