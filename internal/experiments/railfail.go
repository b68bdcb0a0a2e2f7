package experiments

import (
	"fmt"
	"math"

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
	register("S3", RailFailover)
}

// RailFailover is the multipath robustness scenario: one of three rails
// dies under a 24 GB transfer. Streams must migrate to the survivors and
// goodput must settle at two thirds of the three-rail rate; when the rail
// is repaired, the re-probed rail takes its streams back. A corruption
// sweep then exercises the end-to-end integrity plane: with Checksum on
// every injected silent bit flip is caught and re-transferred; with it
// off the corrupt bytes are delivered and only the violation counter
// knows — quantifying exactly what the checksum's CPU cost buys.
func RailFailover() Result {
	size := 24 * float64(units.GB)
	killAt := sim.Time(500 * sim.Millisecond)
	// Steady-state window: after migration has settled, before completion.
	w0, w1 := sim.Time(1.0), sim.Time(1.5)

	cfg := rftp.DefaultConfig()
	cfg.Streams = 6
	run := func(tracer sim.Tracer, plan func(p *testbed.MotivatingPair, plan *faults.Plan)) pairRun {
		return runPairFaults(pairSpec{size: size, cfg: cfg, params: recoveryParams(true),
			tracer: tracer, w0: w0, w1: w1, plan: plan})
	}
	killPlan := func(p *testbed.MotivatingPair, plan *faults.Plan) { plan.PermanentFail(p.Links[1], killAt) }
	base := run(nil, nil)
	kill := run(nil, killPlan)
	heal := run(nil, func(p *testbed.MotivatingPair, plan *faults.Plan) {
		plan.FailWindow(p.Links[1], killAt, sim.Duration(1.5*float64(sim.Second)))
	})

	// Determinism: the kill scenario replayed must produce a bit-identical
	// event trace.
	h1, h2 := trace.NewHasher(), trace.NewHasher()
	runs := []pairRun{base, kill, heal, run(h1, killPlan), run(h2, killPlan)}
	exactlyOnce, maxMigLat := true, 0.0
	for _, o := range runs {
		exactlyOnce = exactlyOnce && o.exactlyOnce
		_, migLat := meanMax(o.tr.MigrationLatencies())
		maxMigLat = math.Max(maxMigLat, migLat)
	}

	failover := metrics.Table{
		Title: "Rail failover: 24 GB, 6 streams over 3×40G, rail 1 killed at t=0.5s",
		Headers: []string{"scenario", "elapsed", "steady goodput", "migrations", "failbacks",
			"max mig lat", "rail deaths", "readmissions", "exactly-once"},
	}
	for _, row := range []struct {
		name string
		o    pairRun
	}{
		{"baseline (no faults)", base},
		{"kill (permanent)", kill},
		{"kill + repair at 2.0s", heal},
	} {
		_, migLat := meanMax(row.o.tr.MigrationLatencies())
		failover.AddRow(
			row.name,
			fmt.Sprintf("%.2fs", float64(row.o.doneAt)),
			units.FormatRate(row.o.windowRate),
			fmt.Sprintf("%d", row.o.tr.Migrations),
			fmt.Sprintf("%d", row.o.tr.Failbacks),
			fmt.Sprintf("%.1fms", migLat*1e3),
			fmt.Sprintf("%d", row.o.tr.Rails().Deaths),
			fmt.Sprintf("%d", row.o.tr.Rails().Readmissions),
			yesNo(row.o.exactlyOnce),
		)
	}

	corrSize := 12 * float64(units.GB)
	const nCorrupt = 3
	integrity := metrics.Table{
		Title: "Integrity plane: 3 seeded silent bit flips under a 12 GB transfer",
		Headers: []string{"checksum", "injected", "detected", "violations",
			"retransmitted", "delivered", "verdict"},
	}
	var claims []Claim
	corrupt := func(p *testbed.MotivatingPair, plan *faults.Plan) {
		for i := 0; i < nCorrupt; i++ {
			plan.Corrupt(p.Links[i%len(p.Links)], sim.Time(0.2+0.15*float64(i)))
		}
	}
	for _, on := range []bool{true, false} {
		cfg := rftp.DefaultConfig()
		cfg.Checksum = on
		o := runPairFaults(pairSpec{size: corrSize, cfg: cfg, params: recoveryParams(true), plan: corrupt})
		det, vio, retx := o.tr.CorruptionsDetected, o.tr.IntegrityViolations, o.tr.Retransmitted
		completed := o.doneAt > 0
		mode := "checksum off: "
		if on {
			mode = "checksum on: "
		}
		claims = append(claims, gate(mode+"corruption run completes", completed))
		verdict := "all flips caught and re-transferred"
		if on {
			claims = append(claims,
				Claim{mode + "flips detected", "", float64(det), nCorrupt, nCorrupt},
				Claim{mode + "violations delivered", "", float64(vio), 0, 0},
				Claim{mode + "bytes retransmitted", "", retx, over(0), inf})
		} else {
			claims = append(claims,
				Claim{mode + "flips detected", "", float64(det), 0, 0},
				Claim{mode + "violations delivered", "", float64(vio), 1, inf})
			verdict = "CORRUPT BYTES DELIVERED undetected"
		}
		integrity.AddRow(
			fmt.Sprintf("%v", on),
			fmt.Sprintf("%d", nCorrupt),
			fmt.Sprintf("%d", det),
			fmt.Sprintf("%d", vio),
			units.FormatBytes(int64(retx)),
			units.FormatBytes(int64(o.tr.Transferred())),
			verdict,
		)
	}

	good := metrics.Series{Name: "steady-goodput-Gbps"}
	good.Add(3, units.ToGbps(base.windowRate))
	good.Add(2, units.ToGbps(kill.windowRate))

	return Result{
		ID:     "S3",
		Title:  "Multi-rail failover: stream migration, failback and the integrity plane",
		Tables: []metrics.Table{failover, integrity},
		Series: []metrics.Series{good},
		Chart:  &chart.Options{XLabel: "surviving rails", YLabel: "Gbps"},
		Claims: append([]Claim{
			gate("every failover run completes exactly once", exactlyOnce),
			// Migration is bounded by loss detection plus the re-establish
			// round trip — far under the retry ladder's worst case.
			{"worst migration latency (ms)", "", maxMigLat * 1e3, -inf,
				(float64(recoveryParams(true).AckTimeout) + 0.05) * 1e3},
			{"post-kill goodput over 2/3 of baseline", "", kill.windowRate / (base.windowRate * 2 / 3), 0.9, 1.1},
			{"kill: streams migrated", "", float64(kill.tr.Migrations), 2, inf},
			{"repair: failbacks", "", float64(heal.tr.Failbacks), 1, inf},
			{"repair: readmissions", "", float64(heal.tr.Rails().Readmissions), 1, inf},
			gate("kill replay trace identical", sameTrace(h1, h2)),
		}, claims...),
		Notes: []string{
			"loss detection (AckTimeout) dominates migration latency; the re-establish round trip is sub-millisecond on the LAN",
			"repairing the rail re-admits it only after consecutive end-to-end probe echoes; streams then fail back with zero double-delivery",
			"with Checksum off, corrupt blocks reach the receiver marked delivered — the violation counter is the only witness, which is the point of the integrity ablation",
		},
	}
}
