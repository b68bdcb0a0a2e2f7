// Package experiments regenerates every table and figure in the paper's
// evaluation (plus the §2.3 motivating experiment and two ablations), each
// as a self-contained function returning paper-style rows and series.
//
// The experiment index — paper value versus the value this simulation
// reproduces — is recorded in EXPERIMENTS.md at the repository root.
//
// Durations: the fluid model reaches steady state within simulated
// milliseconds, so experiments use compressed measurement windows (seconds
// instead of the paper's minutes) except where the long horizon is the
// point (Figure 9/11 time series, SSD thermal throttling).
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"e2edt/internal/chart"
	"e2edt/internal/metrics"
)

// Result is one regenerated table/figure.
type Result struct {
	// ID is the experiment identifier from DESIGN.md (e.g. "F9").
	ID string
	// Title describes the paper artifact.
	Title string
	// Tables hold the regenerated rows.
	Tables []metrics.Table
	// Series hold regenerated curves (time series or sweeps).
	Series []metrics.Series
	// Chart, when non-nil, configures how Series render as an ASCII
	// figure (cmd/e2ebench -chart).
	Chart *chart.Options
	// Claims are the paper figures and scenario gates this run checks.
	Claims []Claim
	// Notes explain what the tables and claims show.
	Notes []string
}

// RenderChart draws the result's series with its chart options (or
// defaults). Empty string when there are no series.
func (r Result) RenderChart() string {
	if len(r.Series) == 0 {
		return ""
	}
	opt := chart.Options{Title: fmt.Sprintf("%s — %s", r.ID, r.Title)}
	if r.Chart != nil {
		opt = *r.Chart
		if opt.Title == "" {
			opt.Title = fmt.Sprintf("%s — %s", r.ID, r.Title)
		}
	}
	return chart.Render(opt, r.Series...)
}

// String renders the result for terminal output.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n", r.ID, r.Title)
	for _, t := range r.Tables {
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	for _, s := range r.Series {
		fmt.Fprintf(&b, "series %s: n=%d mean=%.2f min=%.2f max=%.2f\n",
			s.Name, s.Len(), s.Mean(), s.Min(), s.Max())
	}
	if len(r.Claims) > 0 {
		ct := r.ClaimTable()
		b.WriteString(ct.String())
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Runner produces one experiment result.
type Runner func() Result

// registry maps experiment IDs to runners.
var registry = map[string]Runner{}

// register adds an experiment; called from init functions.
func register(id string, fn Runner) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = fn
}

// IDs returns the registered experiment identifiers, sorted.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes one experiment by ID.
func Run(id string) (Result, error) {
	fn, ok := registry[id]
	if !ok {
		return Result{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	return fn(), nil
}
