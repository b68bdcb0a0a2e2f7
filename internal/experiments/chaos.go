package experiments

import (
	"fmt"
	"math"

	"e2edt/internal/chart"
	"e2edt/internal/faults"
	"e2edt/internal/metrics"
	"e2edt/internal/pipe"
	"e2edt/internal/railmgr"
	"e2edt/internal/rftp"
	"e2edt/internal/sim"
	"e2edt/internal/testbed"
	"e2edt/internal/units"
)

func init() {
	register("S2", ChaosRecovery)
}

// chaosMTBFs is the fault-frequency sweep: mean seconds between injected
// faults across the 3-link fabric (0 = fault-free baseline).
var chaosMTBFs = []float64{0, 4, 2, 1, 0.5}

// chaosDepths is the degradation-depth sweep: surviving capacity fraction
// of one front link during a fixed mid-transfer window.
var chaosDepths = []float64{0.75, 0.5, 0.25, 0.1}

// recoveryParams tunes RFTP's in-protocol recovery for the fault
// scenarios (S2, S3, S4, S7): loss detection within 50 ms, well inside the
// mean outage, and a retry budget deep enough that even overlapping
// outages on all three links are waited out rather than declared terminal.
// rails adds the default rail manager (probe and failback policy).
func recoveryParams(rails bool) rftp.Params {
	p := rftp.DefaultParams()
	p.AckTimeout = 50 * sim.Millisecond
	p.RetryBackoff = 20 * sim.Millisecond
	p.RetryBackoffMax = 200 * sim.Millisecond
	p.MaxStreamRetries = 32
	if rails {
		p.Rails = railmgr.DefaultPolicy()
	}
	return p
}

// chaosOutcome is one chaos run's measurements.
type chaosOutcome struct {
	elapsed       float64 // seconds from start to completion
	goodput       float64 // bytes/s over the whole run
	recoveries    int
	retransmitted float64
	meanLat       float64 // mean recovery latency, seconds (0 if none)
	maxLat        float64
	// exactlyOnce: the transfer completed, never failed over to an
	// out-of-protocol path, and accounted for every payload byte once.
	exactlyOnce bool
}

// chaosRun drives one finite RFTP transfer across a fresh 3×40G pair under
// the given fault plan (nil = baseline) and audits exactly-once delivery.
func chaosRun(size float64, plan func(p *testbed.MotivatingPair) *faults.Plan) chaosOutcome {
	pair := testbed.NewMotivatingPair()
	eng := pair.Eng
	var doneAt sim.Time
	done := false
	tr, err := rftp.Start(pair.Links, pair.A, rftp.DefaultConfig(), recoveryParams(false),
		pipe.Zero{}, pipe.Null{}, size, func(now sim.Time) { done, doneAt = true, now })
	if err != nil {
		panic(err)
	}
	if plan != nil {
		plan(pair).Apply(eng)
	}
	eng.Run()
	out := chaosOutcome{
		elapsed:       float64(doneAt),
		goodput:       size / float64(doneAt),
		recoveries:    tr.Recoveries,
		retransmitted: tr.Retransmitted,
		exactlyOnce:   done && !tr.Failed() && math.Abs(tr.Transferred()-size) <= 1,
	}
	lats := tr.RecoveryLatencies()
	for _, l := range lats {
		out.meanLat += float64(l)
		if float64(l) > out.maxLat {
			out.maxLat = float64(l)
		}
	}
	if len(lats) > 0 {
		out.meanLat /= float64(len(lats))
	}
	return out
}

// ChaosRecovery sweeps seeded fault schedules against a finite RFTP
// transfer with in-protocol recovery enabled: first fault frequency (link
// flaps, degradation windows and injected error-completion bursts at
// decreasing MTBF), then degradation depth alone. Every run is audited
// for exactly-once delivery; goodput and recovery latency are the figures
// of merit. The fault-free baseline anchors the cost of the recovery
// machinery itself (zero: the ACK tracker only acts on loss).
func ChaosRecovery() Result {
	size := 24 * float64(units.GB)

	freq := metrics.Table{
		Title: "Chaos sweep: fault frequency (seed 42, flap/degrade/burst mix, 24 GB over 3×40G)",
		Headers: []string{"MTBF", "elapsed", "goodput", "recoveries", "retransmitted",
			"mean rec lat", "max rec lat", "exactly-once"},
	}
	good := metrics.Series{Name: "goodput-Gbps"}
	lat := metrics.Series{Name: "mean-recovery-latency-ms"}
	var base, worst chaosOutcome
	exactlyOnce := true
	for _, mtbf := range chaosMTBFs {
		var plan func(p *testbed.MotivatingPair) *faults.Plan
		label := "∞ (baseline)"
		if mtbf > 0 {
			label = fmt.Sprintf("%.1fs", mtbf)
			m := mtbf
			plan = func(p *testbed.MotivatingPair) *faults.Plan {
				return faults.Chaos(faults.ChaosConfig{
					Seed:          42,
					Horizon:       20 * sim.Second,
					Start:         sim.Time(200 * sim.Millisecond),
					MeanBetween:   sim.Duration(m) * sim.Second,
					MeanOutage:    300 * sim.Millisecond,
					FlapWeight:    3,
					DegradeWeight: 1,
					BurstWeight:   1,
				}, p.Links...)
			}
		}
		o := chaosRun(size, plan)
		exactlyOnce = exactlyOnce && o.exactlyOnce
		if mtbf == 0 {
			base = o
		}
		worst = o
		x := mtbf
		if x == 0 {
			x = 16 // chart stand-in for the fault-free point
		}
		good.Add(x, units.ToGbps(o.goodput))
		lat.Add(x, o.meanLat*1e3)
		freq.AddRow(
			label,
			fmt.Sprintf("%.2fs", o.elapsed),
			units.FormatRate(o.goodput),
			fmt.Sprintf("%d", o.recoveries),
			units.FormatBytes(int64(o.retransmitted)),
			fmt.Sprintf("%.0fms", o.meanLat*1e3),
			fmt.Sprintf("%.0fms", o.maxLat*1e3),
			yesNo(o.exactlyOnce),
		)
	}

	depth := metrics.Table{
		Title: "Degradation depth: link 0 at fraction f for t=0.5s..2.5s (no loss declared)",
		Headers: []string{"fraction", "elapsed", "goodput", "recoveries", "retransmitted",
			"exactly-once"},
	}
	var depthRecoveries, depthRetx float64
	for _, f := range chaosDepths {
		frac := f
		o := chaosRun(size, func(p *testbed.MotivatingPair) *faults.Plan {
			pl := &faults.Plan{}
			pl.DegradeWindow(p.Links[0], sim.Time(500*sim.Millisecond), 2*sim.Second, frac)
			return pl
		})
		exactlyOnce = exactlyOnce && o.exactlyOnce
		depthRecoveries = math.Max(depthRecoveries, float64(o.recoveries))
		depthRetx = math.Max(depthRetx, o.retransmitted)
		depth.AddRow(
			fmt.Sprintf("%.2f", frac),
			fmt.Sprintf("%.2fs", o.elapsed),
			units.FormatRate(o.goodput),
			fmt.Sprintf("%d", o.recoveries),
			units.FormatBytes(int64(o.retransmitted)),
			yesNo(o.exactlyOnce),
		)
	}

	return Result{
		ID:     "S2",
		Title:  "Fault injection: RFTP in-protocol recovery under chaos schedules",
		Tables: []metrics.Table{freq, depth},
		Series: []metrics.Series{good, lat},
		Chart:  &chart.Options{XLabel: "MTBF s (16=∞)", YLabel: "Gbps / ms", LogX: true},
		Claims: []Claim{
			gate("every run completes exactly once", exactlyOnce),
			{"largest goodput step as MTBF falls", "", maxStep(good.Values), -inf, 1.01},
			{"harshest-point goodput penalty vs baseline (%)", "", (1 - worst.goodput/base.goodput) * 100, over(10), inf},
			{"harshest-point recoveries", "", float64(worst.recoveries), 1, inf},
			{"degradation-only recoveries, most", "", depthRecoveries, 0, 0},
			{"degradation-only retransmitted bytes, most", "", depthRetx, 0, 0},
		},
		Notes: []string{
			fmt.Sprintf("baseline (no faults): %.1f Gbps with 0 recoveries — the ACK tracker is free until a loss occurs",
				units.ToGbps(base.goodput)),
			"pure degradation windows slow the transfer but never trip loss detection: progress continues, so nothing is retransmitted",
		},
	}
}
