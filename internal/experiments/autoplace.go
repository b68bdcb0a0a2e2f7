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
	// it; the placer re-balances onto the survivors. Each run is the S3 kill
	// scenario (rail 1 of 3 dies at 0.5s under a 24 GB, 6-stream transfer),
	// measured over the post-failover window [1.0s, 1.5s]. PolicyAuto wires
	// an adaptive placer over the pair's shared fluid simulation.
	railPlaceRun := func(policy numa.Policy, tracer sim.Tracer) (pairRun, *placer.Engine) {
		cfg := rftp.DefaultConfig()
		cfg.Streams = 6
		cfg.Checksum = true
		cfg.Policy = policy
		var pl *placer.Engine
		o := runPairFaults(pairSpec{
			size: 24 * float64(units.GB), cfg: cfg, params: recoveryParams(true),
			tracer: tracer, w0: 1.0, w1: 1.5,
			wire: func(p *testbed.MotivatingPair, cfg *rftp.Config) {
				if policy == numa.PolicyAuto {
					pl = placer.New(p.A.Sim, placer.DefaultConfig())
					cfg.Placer = pl
				}
			},
			plan: func(p *testbed.MotivatingPair, plan *faults.Plan) {
				plan.PermanentFail(p.Links[1], sim.Time(500*sim.Millisecond))
			},
		})
		return o, pl
	}
	railStatics := map[string]pairRun{}
	for _, policy := range []numa.Policy{numa.PolicyDefault, numa.PolicyBind, numa.PolicyInterleave} {
		railStatics[policy.String()], _ = railPlaceRun(policy, nil)
	}
	railAuto, railPlacer := railPlaceRun(numa.PolicyAuto, nil)

	// Determinism: the auto rail-kill scenario replayed must produce a
	// bit-identical event trace — every placement and migration decision
	// lands at the same virtual time with the same outcome.
	h1, h2 := trace.NewHasher(), trace.NewHasher()
	replay1, _ := railPlaceRun(numa.PolicyAuto, h1)
	replay2, _ := railPlaceRun(numa.PolicyAuto, h2)

	exactlyOnce, bestStatic := true, 0.0
	for _, o := range railStatics {
		bestStatic = math.Max(bestStatic, o.windowRate)
		exactlyOnce = exactlyOnce && o.exactlyOnce
	}
	for _, o := range []pairRun{replay1, replay2, railAuto} {
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
		fmt.Sprintf("%d", railPlacer.Placements()), fmt.Sprintf("%d", railPlacer.Migrations()))

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
			{"rail-kill auto placements", "", float64(railPlacer.Placements()), 1, inf},
			{"rail-kill auto migrations", "", float64(railPlacer.Migrations()), -inf, autoMigrationBound},
			gate("every rail-kill run completes exactly once", exactlyOnce),
			gate("auto rail-kill replay trace identical", sameTrace(h1, h2)),
		},
		Notes: []string{
			"static pinning stacks both surviving rails' threads on one node; the placer re-balances them",
		},
	}
}
