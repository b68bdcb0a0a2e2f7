package experiments

import (
	"fmt"
	"math"
	"reflect"

	"e2edt/internal/chart"
	"e2edt/internal/faults"
	"e2edt/internal/metrics"
	"e2edt/internal/pipe"
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

// grayOutcome is one run's measurements. Goodput is end-to-end: size over
// completion time, which is what a fixed per-stream slice protocol actually
// delivers — the slowest stream is the transfer.
type grayOutcome struct {
	elapsed   float64
	goodput   float64 // bytes/s, size/elapsed
	detectLat float64 // sag → first suspect verdict, seconds (-1: never)
	hedgeLat  float64 // sag → first hedge launched, seconds (-1: never)
	hedges    int
	wins      int
	waste     float64
	deaths    int
	suspects  int
}

// grayRun drives one sized transfer over the 3×40G pair with a silent
// capacity sag of the given severity on rail 1 at sagAt (severity 0 = no
// fault), asserting the invariants every mode must hold: completion,
// exactly-once delivery, hedge accounting closure, and a binary detector
// that never kills the gray rail.
func grayRun(size float64, sagAt sim.Time, severity float64, detect, hedge bool,
	rec *trace.Recorder) grayOutcome {
	pair := testbed.NewMotivatingPair()
	if rec != nil {
		pair.Eng.SetTracer(rec)
	}
	// Per mode: the peer-comparison scorer and the hedging plane.
	p := recoveryParams(true)
	p.Rails.Gray, p.Hedge = detect, hedge
	var doneAt sim.Time
	done := false
	tr, err := rftp.Start(pair.Links, pair.A, grayConfig(), p,
		pipe.Zero{}, pipe.Null{}, size, func(now sim.Time) { done, doneAt = true, now })
	if err != nil {
		panic(err)
	}
	if severity > 0 {
		pl := &faults.Plan{}
		pl.SlowRail(pair.Links[1], sagAt, severity)
		if err := pl.Validate(); err != nil {
			panic(err)
		}
		pl.Apply(pair.Eng)
	}
	pair.Eng.Run()
	if !done || tr.Failed() {
		panic(fmt.Sprintf("S7: transfer did not complete (failed=%v, detect=%v hedge=%v sev=%.2f)",
			tr.Failed(), detect, hedge, severity))
	}
	if d := tr.Transferred(); math.Abs(d-size) > 1 {
		panic(fmt.Sprintf("S7: exactly-once violated: delivered %g of %g bytes", d, size))
	}
	if tr.HedgeWins+tr.HedgeLosses != tr.Hedges {
		panic(fmt.Sprintf("S7: hedge accounting leak: %d wins + %d losses != %d launched",
			tr.HedgeWins, tr.HedgeLosses, tr.Hedges))
	}
	if tr.ActiveHedges() != 0 {
		panic("S7: hedges still racing after completion")
	}
	o := grayOutcome{
		elapsed:   float64(doneAt),
		goodput:   size / float64(doneAt),
		detectLat: -1,
		hedgeLat:  -1,
		hedges:    tr.Hedges,
		wins:      tr.HedgeWins,
		waste:     tr.HedgeWaste,
	}
	if m := tr.Rails(); m != nil {
		o.deaths = m.Deaths
		o.suspects = m.SuspectEntries
		if at, ok := m.FirstSuspectAt(); ok {
			o.detectLat = float64(at - sagAt)
		}
	}
	if at, ok := tr.FirstHedgeAt(); ok {
		o.hedgeLat = float64(at - sagAt)
	}
	if o.deaths != 0 {
		panic(fmt.Sprintf("S7: binary detector killed a gray rail (%d deaths)", o.deaths))
	}
	return o
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

	// Healthy baseline runs with the full plane armed: a healthy cohort
	// must produce no verdicts and no hedges — the false-positive gate.
	base := grayRun(size, sagAt, 0, true, true, nil)
	if base.suspects != 0 || base.hedges != 0 {
		panic(fmt.Sprintf("S7: healthy cohort produced %d suspects, %d hedges",
			base.suspects, base.hedges))
	}

	type mode struct {
		name          string
		detect, hedge bool
	}
	modes := []mode{
		{"none", false, false},
		{"detect", true, false},
		{"detect+hedge", true, true},
	}
	outs := make(map[float64]map[string]grayOutcome)
	for _, sev := range severities {
		outs[sev] = make(map[string]grayOutcome)
		for _, m := range modes {
			outs[sev][m.name] = grayRun(size, sagAt, sev, m.detect, m.hedge, nil)
		}
	}

	// Acceptance gates at the 70%-sag point.
	full, none := outs[0.7]["detect+hedge"], outs[0.7]["none"]
	if full.goodput < 0.90*base.goodput {
		panic(fmt.Sprintf("S7: hedged goodput %.2f GB/s under 70%% sag below 90%% of baseline %.2f GB/s",
			full.goodput/1e9, base.goodput/1e9))
	}
	if none.goodput > 0.60*base.goodput {
		panic(fmt.Sprintf("S7: no-mitigation ablation at %.0f%% of baseline — expected collapse ≤60%%",
			100*none.goodput/base.goodput))
	}
	if full.detectLat <= 0 || full.detectLat > 0.5 {
		panic(fmt.Sprintf("S7: detection latency %.3fs outside (0, 0.5s]", full.detectLat))
	}
	if full.hedgeLat <= 0 || full.hedgeLat > 0.5 {
		panic(fmt.Sprintf("S7: sag-to-mitigation latency %.3fs outside (0, 0.5s]", full.hedgeLat))
	}
	if full.wins == 0 {
		panic("S7: no hedge outran the sagging rail")
	}
	if outs[0.7]["detect"].suspects == 0 {
		panic("S7: detection-only mode never suspected the sagging rail")
	}

	// Determinism: the gated scenario replayed twice must trace identically.
	rec1, rec2 := &trace.Recorder{}, &trace.Recorder{}
	grayRun(size, sagAt, 0.7, true, true, rec1)
	grayRun(size, sagAt, 0.7, true, true, rec2)
	if len(rec1.Events) == 0 || !reflect.DeepEqual(rec1.Events, rec2.Events) {
		panic(fmt.Sprintf("S7: replayed gray scenario diverged (%d vs %d events)",
			len(rec1.Events), len(rec2.Events)))
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
	tbl.AddRow("0%", "healthy baseline", fmt.Sprintf("%.2fs", base.elapsed),
		units.FormatRate(base.goodput), "100%", "—", "—", "0", "0", units.FormatBytes(int64(base.waste)))
	for _, sev := range severities {
		for _, m := range modes {
			o := outs[sev][m.name]
			tbl.AddRow(
				fmt.Sprintf("%.0f%%", sev*100),
				m.name,
				fmt.Sprintf("%.2fs", o.elapsed),
				units.FormatRate(o.goodput),
				fmt.Sprintf("%.0f%%", 100*o.goodput/base.goodput),
				fmtLat(o.detectLat),
				fmtLat(o.hedgeLat),
				fmt.Sprintf("%d", o.hedges),
				fmt.Sprintf("%d", o.wins),
				units.FormatBytes(int64(o.waste)),
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
		Notes: []string{
			fmt.Sprintf("under a 70%% silent sag the no-mitigation transfer collapses to %.0f%% of healthy goodput — the sick rail's fixed-slice streams are the tail that governs completion",
				100*none.goodput/base.goodput),
			fmt.Sprintf("detection+hedging recovers %.0f%% of healthy: lagging windows re-issue on trusted rails, first completion wins, victims migrate off the suspect",
				100*full.goodput/base.goodput),
			fmt.Sprintf("detection latency %.0f ms (peer-comparison hysteresis), sag-to-first-hedge %.0f ms (adaptive p99 deadline) — both bounded, neither relies on an absolute threshold",
				full.detectLat*1e3, full.hedgeLat*1e3),
			fmt.Sprintf("hedge waste at the gate point: %s re-sent for %d wins — the price of cutting the tail, accounted and bounded",
				units.FormatBytes(int64(full.waste)), full.wins),
			"the binary death detector never fires on a gray rail in any cell, and the healthy baseline produces zero verdicts and zero hedges",
			"the 70%-sag detect+hedge scenario replayed with the same schedule produces a bit-identical event trace",
		},
	}
}
