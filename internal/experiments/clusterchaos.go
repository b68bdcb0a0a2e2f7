package experiments

import (
	"fmt"

	"e2edt/internal/cluster"
	"e2edt/internal/faults"
	"e2edt/internal/metrics"
	"e2edt/internal/sim"
)

func init() {
	register("S6", ClusterChaos)
}

// chaosRow renders one chaos scenario against its baseline.
func chaosRow(tbl *metrics.Table, name string, res ClusterRunResult, baseline ClusterRunResult) {
	rep := res.Report
	tbl.AddRow(
		name,
		fmt.Sprintf("%.1f", rep.VirtualSeconds),
		fmt.Sprintf("%.1f", rep.AggregateGoodputGbps),
		fmt.Sprintf("%.0f%%", 100*rep.AggregateGoodputGbps/baseline.Report.AggregateGoodputGbps),
		fmt.Sprintf("%d", rep.JobsLost),
		fmt.Sprintf("%d", rep.JobsRequeued),
		fmt.Sprintf("%d / %d", rep.Elections, rep.Adoptions),
		fmt.Sprintf("%d / %d", rep.DegradedIn, rep.DegradedOut),
	)
}

// ClusterChaos is S6: cluster failure domains under a seeded chaos
// timeline. A 100-host run first executes fault-free to establish the
// goodput baseline and the horizon T; the chaos run then crash-stops a
// host at 0.3 T (restarting it 8 s later) and kills the leader controller
// at 0.6 T. A second scenario severs three shards from the control plane
// and darkens a spine switch. Its claims:
//
//   - every run passes the exactly-once delivery audit;
//   - chaos goodput stays ≥ 90% of the no-fault baseline;
//   - the leader kill produces an election and an adoption;
//   - no shard is still degraded after the partition heals;
//   - each scenario runs twice and the trace hashes are bit-identical.
func ClusterChaos() Result {
	const seed = 4242
	base := ClusterRunSpec{
		Config:  cluster.Config{Hosts: 100, Shards: 8, DropPct: 2, Seed: seed},
		Tenants: 400,
		Jobs:    1200,
	}
	baseline := RunClusterPoint(base)
	T := baseline.Report.VirtualSeconds

	// runPair runs a scenario twice and reports whether the traces match.
	runPair := func(spec ClusterRunSpec) (ClusterRunResult, bool) {
		r1 := RunClusterPoint(spec)
		return r1, RunClusterPoint(spec).TraceSHA == r1.TraceSHA
	}

	// Scenario 1: host crash at 0.3 T (8 s outage) + leader kill at 0.6 T.
	crash := base
	crash.Chaos = &faults.Plan{}
	crash.Chaos.HostOutage(7, sim.Time(0.3*T), 8)
	crash.Chaos.KillController(0, sim.Time(0.6*T))
	crashRes, crashReplayed := runPair(crash)

	// Scenario 2: control-plane partition (shards 5–7 severed for 8 s) plus
	// a spine switch dark for 5 s, forcing ECMP detours mid-transfer.
	part := base
	part.Chaos = &faults.Plan{}
	part.Chaos.PartitionWindow([]int{5, 6, 7}, sim.Time(0.25*T), 8)
	part.Chaos.SpineOutage(1, sim.Time(0.4*T), 5)
	partRes, partReplayed := runPair(part)
	cr, pr := crashRes.Report, partRes.Report

	tbl := metrics.Table{
		Title: fmt.Sprintf("S6 — failure domains (100 hosts, 8 shards, baseline horizon %.1f s)", T),
		Headers: []string{"scenario", "virtual s", "goodput Gbps", "vs baseline",
			"lost", "requeued", "elect/adopt", "degraded in/out"},
	}
	chaosRow(&tbl, "no faults", baseline, baseline)
	chaosRow(&tbl, "host@30% + leader@60%", crashRes, baseline)
	chaosRow(&tbl, "partition 8s + spine 5s", partRes, baseline)

	return Result{
		ID:     "S6",
		Title:  "Cluster chaos: crash-stop hosts, leader failover, partition-tolerant degraded mode",
		Tables: []metrics.Table{tbl},
		Claims: []Claim{
			gate("no faults: exactly-once audit", baseline.ExactlyOnce == nil),
			gate("host+leader kill: exactly-once audit", crashRes.ExactlyOnce == nil),
			gate("host+leader kill: replay trace identical", crashReplayed),
			{"host+leader kill: shards degraded at end", "", float64(crashRes.DegradedAtEnd), 0, 0},
			{"host+leader kill: elections", "", float64(cr.Elections), 1, inf},
			{"host+leader kill: adoptions", "", float64(cr.Adoptions), 1, inf},
			{"host+leader kill: jobs requeued", "", float64(cr.JobsRequeued), 1, inf},
			{"host+leader kill: goodput over baseline", "",
				cr.AggregateGoodputGbps / baseline.Report.AggregateGoodputGbps, 0.9, inf},
			gate("partition+spine kill: exactly-once audit", partRes.ExactlyOnce == nil),
			gate("partition+spine kill: replay trace identical", partReplayed),
			{"partition+spine kill: shards degraded at end", "", float64(partRes.DegradedAtEnd), 0, 0},
			{"partition+spine kill: degraded entries", "", float64(pr.DegradedIn), 1, inf},
			{"partition+spine kill: degraded exits − entries", "", float64(pr.DegradedOut - pr.DegradedIn), 0, 0},
			{"partition+spine kill: control drops", "", float64(pr.PartDrops), 1, inf},
		},
		Notes: []string{
			fmt.Sprintf("chaos replay sha256 %s… / %s…",
				crashRes.TraceSHA[:16], partRes.TraceSHA[:16]),
			fmt.Sprintf("host kill voided %d completions; partition rejected %d stale leases; spine kill rerouted %d jobs",
				cr.VoidedJobs, pr.StaleLeases, pr.Reroutes),
		},
	}
}
