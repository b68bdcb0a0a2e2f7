package experiments

import (
	"fmt"
	"math"

	"e2edt/internal/faults"
	"e2edt/internal/fio"
	"e2edt/internal/host"
	"e2edt/internal/iperf"
	"e2edt/internal/iscsi"
	"e2edt/internal/iser"
	"e2edt/internal/metrics"
	"e2edt/internal/numa"
	"e2edt/internal/pipe"
	"e2edt/internal/placer"
	"e2edt/internal/rftp"
	"e2edt/internal/sim"
	"e2edt/internal/testbed"
	"e2edt/internal/trace"
	"e2edt/internal/units"
)

func init() {
	register("S4", AutoPlacement)
}

// autoMigrationBound is the executor sanity bound: across any S4 scenario
// the online controller must commit far fewer migrations than scans — an
// unbounded count means the hysteresis band is not doing its job.
const autoMigrationBound = 40

// fioAutoPoint runs the F7 read point under the adaptive placer: target
// worker pools, the initiator thread and the per-LUN I/O buffers all start
// spread (PolicyDefault shape) and the engine converges them online.
func fioAutoPoint(op iscsi.Op, blockSize int64) (float64, placer.Stats) {
	r := newBackendRig(numa.PolicyAuto)
	pl := placer.New(r.s, placer.DefaultConfig())
	mv := r.sess.Mover.(*iser.Mover)
	mv.Placer = pl
	for i := 0; i < 6; i++ {
		ws := mv.Target.Workers(i)
		threads := make([]*host.Thread, len(ws))
		bufs := make([]*numa.Buffer, len(ws))
		for j, w := range ws {
			threads[j] = w.Thread
			bufs[j] = w.Bounce
		}
		pl.AddEntity(fmt.Sprintf("tgt-lun%d", i), r.tgt.M, threads, bufs,
			float64(len(ws))*4*float64(units.MB))
	}
	pl.AddEntity("initiator", r.init.M, []*host.Thread{mv.InitThread}, nil, 0)
	const window = 4.0
	mkBuf := func(lun, slot int) *numa.Buffer {
		b := r.init.M.InterleavedBuffer("fio")
		pl.AddEntity(fmt.Sprintf("fio/l%d/%d", lun, slot), r.init.M, nil,
			[]*numa.Buffer{b}, float64(blockSize))
		return b
	}
	res, err := fio.Run(r.eng, r.sess, mkBuf, fio.JobSpec{
		Name: "fio", Op: op, BlockSize: blockSize, IODepth: 4, Duration: window,
	})
	if err != nil {
		panic(err)
	}
	return res[0].Bandwidth(), pl.Stats()
}

// railPlaceOutcome is one rail-kill placement run's measurements.
type railPlaceOutcome struct {
	windowRate  float64 // post-kill steady goodput, bytes/s
	placements  int
	migrations  int
	exactlyOnce bool // completed and delivered every byte once
}

// railPlaceRun drives the S3 kill scenario (rail 1 of 3 dies at 0.5s under
// a 24 GB, 6-stream transfer) under the given NUMA policy and measures
// goodput over the post-failover window [w0, w1]. PolicyAuto wires an
// adaptive placer over the pair's shared fluid simulation.
func railPlaceRun(policy numa.Policy, tracer sim.Tracer) railPlaceOutcome {
	size := 24 * float64(units.GB)
	killAt := sim.Time(500 * sim.Millisecond)
	w0, w1 := sim.Time(1.0), sim.Time(1.5)

	pair := testbed.NewMotivatingPair()
	eng := pair.Eng
	if tracer != nil {
		eng.SetTracer(tracer)
	}
	cfg := rftp.DefaultConfig()
	cfg.Streams = 6
	cfg.Checksum = true
	cfg.Policy = policy
	var pl *placer.Engine
	if policy == numa.PolicyAuto {
		pl = placer.New(pair.A.Sim, placer.DefaultConfig())
		cfg.Placer = pl
	}
	done := false
	tr, err := rftp.Start(pair.Links, pair.A, cfg, recoveryParams(true),
		pipe.Zero{}, pipe.Null{}, size, func(sim.Time) { done = true })
	if err != nil {
		panic(err)
	}
	plan := &faults.Plan{}
	plan.PermanentFail(pair.Links[1], killAt)
	plan.Apply(eng)
	var at0, at1 float64
	eng.At(w0, func() { at0 = tr.Transferred() })
	eng.At(w1, func() { at1 = tr.Transferred() })
	eng.Run()
	o := railPlaceOutcome{
		windowRate:  (at1 - at0) / float64(w1-w0),
		exactlyOnce: done && !tr.Failed() && math.Abs(tr.Transferred()-size) <= 1,
	}
	if pl != nil {
		o.placements = pl.Placements()
		o.migrations = pl.Migrations()
	}
	return o
}

// AutoPlacement is the adaptive placement scenario (S4): starting from the
// default spread layout, the placer must rediscover the paper's hand-tuned
// binding online — ≥95% of PolicyBind throughput on the motivating iperf
// run (E1) and the iSER fio point (F7) — and, when a rail dies mid-run,
// re-balance the surviving endpoints to beat every static policy,
// including PolicyBind, whose per-NIC pinning stacks both surviving rails'
// threads on one node. Decisions must replay bit-identically and the
// migration count must stay bounded.
func AutoPlacement() Result {
	// Leg 1 — E1: bi-directional iperf over 3×40G RoCE.
	iperfRun := func(policy numa.Policy) (float64, iperf.Report) {
		p := testbed.NewMotivatingPair()
		cfg := iperf.DefaultConfig()
		cfg.Policy = policy
		rep := iperf.Run(p.Links, cfg)
		return rep.Aggregate, rep
	}
	iperfDef, _ := iperfRun(numa.PolicyDefault)
	iperfBind, _ := iperfRun(numa.PolicyBind)
	iperfAuto, autoRep := iperfRun(numa.PolicyAuto)

	// Leg 2 — F7: iSER fio 4 MB sequential read.
	bs := int64(4 * units.MB)
	fioDef, _ := fioPoint(numa.PolicyDefault, iscsi.OpRead, bs)
	fioBind, _ := fioPoint(numa.PolicyBind, iscsi.OpRead, bs)
	fioAuto, fioStats := fioAutoPoint(iscsi.OpRead, bs)

	// Leg 3 — rail kill: static policies pin (or spread) once and live with
	// it; the placer re-balances onto the survivors.
	railStatics := map[string]railPlaceOutcome{
		"default":    railPlaceRun(numa.PolicyDefault, nil),
		"bind":       railPlaceRun(numa.PolicyBind, nil),
		"interleave": railPlaceRun(numa.PolicyInterleave, nil),
	}
	railAuto := railPlaceRun(numa.PolicyAuto, nil)

	// Determinism: the auto rail-kill scenario replayed must produce a
	// bit-identical event trace — every placement and migration decision
	// lands at the same virtual time with the same outcome.
	h1, h2 := trace.NewHasher(), trace.NewHasher()
	replays := []railPlaceOutcome{railPlaceRun(numa.PolicyAuto, h1), railPlaceRun(numa.PolicyAuto, h2)}

	exactlyOnce, bestStatic := true, 0.0
	for _, o := range railStatics {
		bestStatic = math.Max(bestStatic, o.windowRate)
		exactlyOnce = exactlyOnce && o.exactlyOnce
	}
	for _, o := range append(replays, railAuto) {
		exactlyOnce = exactlyOnce && o.exactlyOnce
	}

	conv := metrics.Table{
		Title:   "Adaptive placement: converged throughput vs static policies",
		Headers: []string{"workload", "default", "bind", "auto", "auto/bind"},
	}
	conv.AddRow("E1 iperf 3×40G", units.FormatRate(iperfDef), units.FormatRate(iperfBind),
		units.FormatRate(iperfAuto), fmt.Sprintf("%.3f", iperfAuto/iperfBind))
	conv.AddRow("F7 fio read 4MB", units.FormatRate(fioDef), units.FormatRate(fioBind),
		units.FormatRate(fioAuto), fmt.Sprintf("%.3f", fioAuto/fioBind))

	rail := metrics.Table{
		Title:   "Rail kill at 0.5s: post-failover goodput [1.0s, 1.5s] by policy",
		Headers: []string{"policy", "goodput", "placements", "migrations"},
	}
	for _, name := range []string{"default", "interleave", "bind"} {
		o := railStatics[name]
		rail.AddRow(name, units.FormatRate(o.windowRate), "-", "-")
	}
	rail.AddRow("auto", units.FormatRate(railAuto.windowRate),
		fmt.Sprintf("%d", railAuto.placements), fmt.Sprintf("%d", railAuto.migrations))

	return Result{
		ID:     "S4",
		Title:  "Adaptive NUMA placement: online convergence and post-failure re-balancing",
		Tables: []metrics.Table{conv, rail},
		Claims: []Claim{
			{"iperf auto/bind", "", iperfAuto / iperfBind, 0.95, inf},
			{"iperf auto placements", "", float64(autoRep.Placements), 1, inf},
			{"iperf auto migrations", "", float64(autoRep.Migrations), -inf, autoMigrationBound},
			{"fio auto/bind", "", fioAuto / fioBind, 0.95, inf},
			{"fio auto placements", "", float64(fioStats.Placements), 1, inf},
			{"fio auto migrations", "", float64(fioStats.Migrations), -inf, autoMigrationBound},
			{"post-kill auto over best static goodput", "", railAuto.windowRate / bestStatic, over(1), inf},
			{"rail-kill auto placements", "", float64(railAuto.placements), 1, inf},
			{"rail-kill auto migrations", "", float64(railAuto.migrations), -inf, autoMigrationBound},
			gate("every rail-kill run completes exactly once", exactlyOnce),
			gate("auto rail-kill replay trace identical", sameTrace(h1, h2)),
		},
		Notes: []string{
			"static pinning stacks both surviving rails' threads on one node; the placer re-balances them",
		},
	}
}
