package experiments

import (
	"fmt"

	"e2edt/internal/chart"
	"e2edt/internal/faults"
	"e2edt/internal/metrics"
	"e2edt/internal/rftp"
	"e2edt/internal/sim"
	"e2edt/internal/testbed"
	"e2edt/internal/trace"
	"e2edt/internal/units"
)

func init() {
	register("S7", GrayFailure)
}

// grayConfig is the credit-limited shape: per-stream rate is pinned by the
// window (2×128 KB credits), well under a healthy rail's share, so healthy
// rails hold the headroom that hedges and migrated victims land on.
func grayConfig() rftp.Config {
	return rftp.Config{Streams: 6, BlockSize: 128 * units.KB, CreditsPerStream: 2}
}

// GrayFailure is the tail-tolerance scenario: one of three rails silently
// sags — no link event, probes keep answering — under a 24 GB transfer
// whose streams own fixed slices, so the sick rail's streams become the
// tail that governs completion. The sweep crosses sag severity with the
// mitigation ladder (none / detection only / detection+hedging) and gates
// on the 70% point: hedged goodput must recover ≥90% of the healthy
// baseline while the no-mitigation ablation collapses below 60%.
func GrayFailure() Result {
	size := 24 * float64(units.GB)
	sagAt := sim.Time(500 * sim.Millisecond)
	severities := []float64{0.5, 0.7, 0.85}

	// grayRun drives one transfer with a silent capacity sag of the given
	// severity on rail 1 at sagAt (severity 0 = no fault), per mode: the
	// peer-comparison scorer (detect) and the hedging plane (hedge).
	grayRun := func(severity float64, detect, hedge bool, tracer sim.Tracer) pairRun {
		p := recoveryParams(true)
		p.Rails.Gray, p.Hedge = detect, hedge
		spec := pairSpec{size: size, cfg: grayConfig(), params: p, tracer: tracer}
		if severity > 0 {
			spec.plan = func(p *testbed.MotivatingPair, plan *faults.Plan) {
				plan.SlowRail(p.Links[1], sagAt, severity)
			}
		}
		return runPairFaults(spec)
	}
	// sinceSag is the latency from the sag to an event (-1: never).
	sinceSag := func(at sim.Time, ok bool) float64 {
		if !ok {
			return -1
		}
		return float64(at - sagAt)
	}

	// Healthy baseline runs with the full plane armed: a healthy cohort
	// must produce no verdicts and no hedges — the false-positive gate.
	// Goodput is end-to-end, size over completion time: with fixed
	// per-stream slices the slowest stream is the transfer.
	base := grayRun(0, true, true, nil)

	type mode struct {
		name          string
		detect, hedge bool
	}
	modes := []mode{
		{"none", false, false},
		{"detect", true, false},
		{"detect+hedge", true, true},
	}
	outs := make(map[float64]map[string]pairRun)
	for _, sev := range severities {
		outs[sev] = make(map[string]pairRun)
		for _, m := range modes {
			outs[sev][m.name] = grayRun(sev, m.detect, m.hedge, nil)
		}
	}

	full, none := outs[0.7]["detect+hedge"], outs[0.7]["none"]

	// Determinism: the gated scenario replayed twice must trace identically.
	h1, h2 := trace.NewHasher(), trace.NewHasher()
	runs := []pairRun{base, grayRun(0.7, true, true, h1), grayRun(0.7, true, true, h2)}
	for _, sev := range severities {
		for _, m := range modes {
			runs = append(runs, outs[sev][m.name])
		}
	}
	// Every run must complete exactly once, close its hedge accounting
	// (every launched hedge won or lost, none still racing), and never let
	// the binary detector kill the gray rail.
	exactlyOnce, hedgesClosed, deaths := true, true, 0
	for _, o := range runs {
		tr := o.tr
		exactlyOnce = exactlyOnce && o.exactlyOnce
		hedgesClosed = hedgesClosed && tr.HedgeWins+tr.HedgeLosses == tr.Hedges && tr.ActiveHedges() == 0
		deaths += tr.Rails().Deaths
	}

	tbl := metrics.Table{
		Title: "Gray rail: 24 GB, 6 fixed-slice streams over 3×40G, rail 1 sags silently at t=0.5s",
		Headers: []string{"sag", "mode", "elapsed", "goodput", "vs healthy",
			"detect lat", "hedge lat", "hedges", "wins", "waste"},
	}
	fmtLat := func(v float64) string {
		if v < 0 {
			return "—"
		}
		return fmt.Sprintf("%.0fms", v*1e3)
	}
	tbl.AddRow("0%", "healthy baseline", fmt.Sprintf("%.2fs", float64(base.doneAt)),
		units.FormatRate(base.goodput), "100%", "—", "—", "0", "0", units.FormatBytes(int64(base.tr.HedgeWaste)))
	for _, sev := range severities {
		for _, m := range modes {
			o := outs[sev][m.name]
			tbl.AddRow(
				fmt.Sprintf("%.0f%%", sev*100),
				m.name,
				fmt.Sprintf("%.2fs", float64(o.doneAt)),
				units.FormatRate(o.goodput),
				fmt.Sprintf("%.0f%%", 100*o.goodput/base.goodput),
				fmtLat(sinceSag(o.tr.Rails().FirstSuspectAt())),
				fmtLat(sinceSag(o.tr.FirstHedgeAt())),
				fmt.Sprintf("%d", o.tr.Hedges),
				fmt.Sprintf("%d", o.tr.HedgeWins),
				units.FormatBytes(int64(o.tr.HedgeWaste)),
			)
		}
	}

	good := metrics.Series{Name: "goodput-vs-healthy-pct-at-70pct-sag"}
	good.Add(0, 100*none.goodput/base.goodput)
	good.Add(1, 100*outs[0.7]["detect"].goodput/base.goodput)
	good.Add(2, 100*full.goodput/base.goodput)

	return Result{
		ID:     "S7",
		Title:  "Gray-failure detection and tail-tolerant transfers",
		Tables: []metrics.Table{tbl},
		Series: []metrics.Series{good},
		Chart:  &chart.Options{XLabel: "mitigation (0=none, 1=detect, 2=detect+hedge)", YLabel: "% of healthy goodput"},
		Claims: []Claim{
			gate("every run completes exactly once", exactlyOnce),
			gate("every run closes its hedge accounting", hedgesClosed),
			{"rail deaths across all runs", "", float64(deaths), 0, 0},
			{"healthy baseline suspects", "", float64(base.tr.Rails().SuspectEntries), 0, 0},
			{"healthy baseline hedges", "", float64(base.tr.Hedges), 0, 0},
			{"70% sag, detect+hedge goodput (% of healthy)", "", good.Values[2], 90, inf},
			{"70% sag, no mitigation goodput (% of healthy)", "", good.Values[0], -inf, 60},
			{"smallest step up the mitigation ladder", "", minStep(good.Values), 0.99, inf},
			{"70% sag, detection latency (s)", "", sinceSag(full.tr.Rails().FirstSuspectAt()), over(0), 0.5},
			{"70% sag, sag-to-first-hedge latency (s)", "", sinceSag(full.tr.FirstHedgeAt()), over(0), 0.5},
			{"70% sag, hedge wins", "", float64(full.tr.HedgeWins), 1, inf},
			{"70% sag, detect-only suspects", "", float64(outs[0.7]["detect"].tr.Rails().SuspectEntries), 1, inf},
			gate("70% sag detect+hedge replay trace identical", sameTrace(h1, h2)),
		},
		Notes: []string{
			"the sick rail's fixed-slice streams are the tail that governs completion; with hedging, lagging windows re-issue on trusted rails, first completion wins, victims migrate off the suspect",
			"detection uses peer-comparison hysteresis and hedging an adaptive p99 deadline — neither relies on an absolute threshold",
			fmt.Sprintf("hedge waste at the gate point: %s re-sent for %d wins — the price of cutting the tail, accounted and bounded",
				units.FormatBytes(int64(full.tr.HedgeWaste)), full.tr.HedgeWins),
		},
	}
}
