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

// pairSpec is one single-pair fault run: a finite RFTP transfer over a
// fresh 3×40G pair (the §2.3 rig) under a fault plan.
type pairSpec struct {
	size   float64
	cfg    rftp.Config
	params rftp.Params
	tracer sim.Tracer // nil: untraced
	// w0, w1 bound the goodput sampling window; w1 == 0 samples nothing.
	w0, w1 sim.Time
	// wire, when set, adjusts the config against the pair before Start.
	wire func(p *testbed.MotivatingPair, cfg *rftp.Config)
	// plan, when set, schedules the run's faults over the pair.
	plan func(p *testbed.MotivatingPair, plan *faults.Plan)
}

// pairRun is one single-pair fault run's outcome; the transfer carries
// the recovery, migration, hedge and integrity counters.
type pairRun struct {
	tr         *rftp.Transfer
	doneAt     sim.Time // completion time (0: never completed)
	goodput    float64  // size over doneAt, bytes/s
	windowRate float64  // goodput over [w0, w1], bytes/s
	// exactlyOnce: the transfer completed, never failed over to an
	// out-of-protocol path, and accounted for every payload byte once.
	exactlyOnce bool
}

// runPairFaults drives one single-pair fault run. The plan is applied
// after Start, and the window samples are scheduled after the plan, so
// same-instant ties resolve in that order.
func runPairFaults(s pairSpec) pairRun {
	pair := testbed.NewMotivatingPair()
	eng := pair.Eng
	if s.tracer != nil {
		eng.SetTracer(s.tracer)
	}
	cfg := s.cfg
	if s.wire != nil {
		s.wire(pair, &cfg)
	}
	var r pairRun
	done := false
	tr, err := rftp.Start(pair.Links, pair.A, cfg, s.params,
		pipe.Zero{}, pipe.Null{}, s.size, func(now sim.Time) { done, r.doneAt = true, now })
	if err != nil {
		panic(err)
	}
	r.tr = tr
	if s.plan != nil {
		plan := &faults.Plan{}
		s.plan(pair, plan)
		plan.Apply(eng)
	}
	var at0, at1 float64
	if s.w1 > 0 {
		eng.At(s.w0, func() { at0 = tr.Transferred() })
		eng.At(s.w1, func() { at1 = tr.Transferred() })
	}
	eng.Run()
	if s.w1 > 0 {
		r.windowRate = (at1 - at0) / float64(s.w1-s.w0)
	}
	r.goodput = s.size / float64(r.doneAt)
	r.exactlyOnce = done && !tr.Failed() && math.Abs(tr.Transferred()-s.size) <= 1
	return r
}

// meanMax returns the mean and the largest of latency samples, in
// seconds (0, 0 for none).
func meanMax(lats []sim.Duration) (mean, max float64) {
	for _, l := range lats {
		mean += float64(l)
		max = math.Max(max, float64(l))
	}
	if len(lats) > 0 {
		mean /= float64(len(lats))
	}
	return mean, max
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
	run := func(plan func(p *testbed.MotivatingPair, plan *faults.Plan)) pairRun {
		return runPairFaults(pairSpec{size: size, cfg: rftp.DefaultConfig(),
			params: recoveryParams(false), plan: plan})
	}
	var base, worst pairRun
	exactlyOnce := true
	for _, mtbf := range chaosMTBFs {
		var plan func(p *testbed.MotivatingPair, plan *faults.Plan)
		label := "∞ (baseline)"
		if mtbf > 0 {
			label = fmt.Sprintf("%.1fs", mtbf)
			m := mtbf
			plan = func(p *testbed.MotivatingPair, plan *faults.Plan) {
				*plan = *faults.Chaos(faults.ChaosConfig{
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
		o := run(plan)
		exactlyOnce = exactlyOnce && o.exactlyOnce
		if mtbf == 0 {
			base = o
		}
		worst = o
		x := mtbf
		if x == 0 {
			x = 16 // chart stand-in for the fault-free point
		}
		meanLat, maxLat := meanMax(o.tr.RecoveryLatencies())
		good.Add(x, units.ToGbps(o.goodput))
		lat.Add(x, meanLat*1e3)
		freq.AddRow(
			label,
			fmt.Sprintf("%.2fs", float64(o.doneAt)),
			units.FormatRate(o.goodput),
			fmt.Sprintf("%d", o.tr.Recoveries),
			units.FormatBytes(int64(o.tr.Retransmitted)),
			fmt.Sprintf("%.0fms", meanLat*1e3),
			fmt.Sprintf("%.0fms", maxLat*1e3),
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
		o := run(func(p *testbed.MotivatingPair, plan *faults.Plan) {
			plan.DegradeWindow(p.Links[0], sim.Time(500*sim.Millisecond), 2*sim.Second, frac)
		})
		exactlyOnce = exactlyOnce && o.exactlyOnce
		depthRecoveries = math.Max(depthRecoveries, float64(o.tr.Recoveries))
		depthRetx = math.Max(depthRetx, o.tr.Retransmitted)
		depth.AddRow(
			fmt.Sprintf("%.2f", frac),
			fmt.Sprintf("%.2fs", float64(o.doneAt)),
			units.FormatRate(o.goodput),
			fmt.Sprintf("%d", o.tr.Recoveries),
			units.FormatBytes(int64(o.tr.Retransmitted)),
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
			{"harshest-point recoveries", "", float64(worst.tr.Recoveries), 1, inf},
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
