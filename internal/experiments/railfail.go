package experiments

import (
	"fmt"
	"math"

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
	register("S3", RailFailover)
}

// railOutcome is one failover run's measurements.
type railOutcome struct {
	elapsed    float64
	windowRate float64 // goodput over the steady-state window, bytes/s
	migrations int
	failbacks  int
	maxMigLat  float64 // seconds
	readmits   int
	deaths     int
	// exactlyOnce: the transfer completed and delivered every byte once.
	exactlyOnce bool
}

// railRun drives one 24 GB transfer over the 3×40G pair under a fault
// plan, measuring steady-state goodput over [w0, w1] (both rails settled).
func railRun(size float64, w0, w1 sim.Time, tracer sim.Tracer,
	plan func(p *testbed.MotivatingPair) *faults.Plan) railOutcome {
	pair := testbed.NewMotivatingPair()
	eng := pair.Eng
	if tracer != nil {
		eng.SetTracer(tracer)
	}
	var doneAt sim.Time
	done := false
	cfg := rftp.DefaultConfig()
	cfg.Streams = 6
	tr, err := rftp.Start(pair.Links, pair.A, cfg, recoveryParams(true),
		pipe.Zero{}, pipe.Null{}, size, func(now sim.Time) { done, doneAt = true, now })
	if err != nil {
		panic(err)
	}
	if plan != nil {
		plan(pair).Apply(eng)
	}
	var at0, at1 float64
	eng.At(w0, func() { at0 = tr.Transferred() })
	eng.At(w1, func() { at1 = tr.Transferred() })
	eng.Run()
	o := railOutcome{
		elapsed:     float64(doneAt),
		windowRate:  (at1 - at0) / float64(w1-w0),
		migrations:  tr.Migrations,
		failbacks:   tr.Failbacks,
		exactlyOnce: done && !tr.Failed() && math.Abs(tr.Transferred()-size) <= 1,
	}
	for _, l := range tr.MigrationLatencies() {
		if float64(l) > o.maxMigLat {
			o.maxMigLat = float64(l)
		}
	}
	if m := tr.Rails(); m != nil {
		o.readmits = m.Readmissions
		o.deaths = m.Deaths
	}
	return o
}

// corruptionRun drives one transfer with n seeded silent corruptions and
// reports what the integrity plane saw.
func corruptionRun(size float64, checksum bool, n int) (detected, violations int, retx, delivered float64, completed bool) {
	pair := testbed.NewMotivatingPair()
	cfg := rftp.DefaultConfig()
	cfg.Checksum = checksum
	done := false
	tr, err := rftp.Start(pair.Links, pair.A, cfg, recoveryParams(true),
		pipe.Zero{}, pipe.Null{}, size, func(sim.Time) { done = true })
	if err != nil {
		panic(err)
	}
	pl := &faults.Plan{}
	for i := 0; i < n; i++ {
		pl.Corrupt(pair.Links[i%len(pair.Links)], sim.Time(0.2+0.15*float64(i)))
	}
	pl.Apply(pair.Eng)
	pair.Eng.Run()
	return tr.CorruptionsDetected, tr.IntegrityViolations, tr.Retransmitted, tr.Transferred(), done
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

	base := railRun(size, w0, w1, nil, nil)
	kill := railRun(size, w0, w1, nil, func(p *testbed.MotivatingPair) *faults.Plan {
		pl := &faults.Plan{}
		pl.PermanentFail(p.Links[1], killAt)
		return pl
	})
	heal := railRun(size, w0, w1, nil, func(p *testbed.MotivatingPair) *faults.Plan {
		pl := &faults.Plan{}
		pl.FailWindow(p.Links[1], killAt, sim.Duration(1.5*float64(sim.Second)))
		return pl
	})

	// Determinism: the kill scenario replayed must produce a bit-identical
	// event trace.
	mkPlan := func(p *testbed.MotivatingPair) *faults.Plan {
		pl := &faults.Plan{}
		pl.PermanentFail(p.Links[1], killAt)
		return pl
	}
	h1, h2 := trace.NewHasher(), trace.NewHasher()
	runs := []railOutcome{base, kill, heal,
		railRun(size, w0, w1, h1, mkPlan), railRun(size, w0, w1, h2, mkPlan)}
	exactlyOnce, maxMigLat := true, 0.0
	for _, o := range runs {
		exactlyOnce = exactlyOnce && o.exactlyOnce
		maxMigLat = math.Max(maxMigLat, o.maxMigLat)
	}

	failover := metrics.Table{
		Title: "Rail failover: 24 GB, 6 streams over 3×40G, rail 1 killed at t=0.5s",
		Headers: []string{"scenario", "elapsed", "steady goodput", "migrations", "failbacks",
			"max mig lat", "rail deaths", "readmissions", "exactly-once"},
	}
	for _, row := range []struct {
		name string
		o    railOutcome
	}{
		{"baseline (no faults)", base},
		{"kill (permanent)", kill},
		{"kill + repair at 2.0s", heal},
	} {
		failover.AddRow(
			row.name,
			fmt.Sprintf("%.2fs", row.o.elapsed),
			units.FormatRate(row.o.windowRate),
			fmt.Sprintf("%d", row.o.migrations),
			fmt.Sprintf("%d", row.o.failbacks),
			fmt.Sprintf("%.1fms", row.o.maxMigLat*1e3),
			fmt.Sprintf("%d", row.o.deaths),
			fmt.Sprintf("%d", row.o.readmits),
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
	for _, on := range []bool{true, false} {
		det, vio, retx, delivered, completed := corruptionRun(corrSize, on, nCorrupt)
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
			units.FormatBytes(int64(delivered)),
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
			{"kill: streams migrated", "", float64(kill.migrations), 2, inf},
			{"repair: failbacks", "", float64(heal.failbacks), 1, inf},
			{"repair: readmissions", "", float64(heal.readmits), 1, inf},
			gate("kill replay trace identical", sameTrace(h1, h2)),
		}, claims...),
		Notes: []string{
			"loss detection (AckTimeout) dominates migration latency; the re-establish round trip is sub-millisecond on the LAN",
			"repairing the rail re-admits it only after consecutive end-to-end probe echoes; streams then fail back with zero double-delivery",
			"with Checksum off, corrupt blocks reach the receiver marked delivered — the violation counter is the only witness, which is the point of the integrity ablation",
		},
	}
}
