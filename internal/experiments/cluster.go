package experiments

import (
	"fmt"
	"math"
	"time"

	"e2edt/internal/chart"
	"e2edt/internal/cluster"
	"e2edt/internal/faults"
	"e2edt/internal/metrics"
	"e2edt/internal/sim"
	"e2edt/internal/trace"
)

func init() {
	register("S5", ClusterScale)
}

// ClusterRunSpec parameterizes one cluster scenario run: the cluster, its
// generated workload (seeded by the cluster's seed) and its faults. It is
// shared by the S5/S6 harnesses, the cmd/xfersched cluster mode and the
// solver oracle tests, so every consumer measures exactly the same system.
type ClusterRunSpec struct {
	cluster.Config
	Tenants int
	Jobs    int

	// Chaos, when non-empty, injects cluster-scale faults into the run.
	Chaos *faults.Plan
}

// ClusterRunResult is one run's outcome: the cluster report plus the
// replay digest and the wall-clock cost of simulating it.
type ClusterRunResult struct {
	Report      cluster.Report
	TraceSHA    string
	TraceEvents uint64
	WallSeconds float64
	Topology    string

	// ExactlyOnce is the post-run delivery audit: nil iff every done job
	// completed exactly once and the delivered-bytes ledgers agree.
	ExactlyOnce error
	// DegradedAtEnd counts shards still in degraded mode when the run
	// drained (must be zero after every partition heals).
	DegradedAtEnd int
}

// RunClusterPoint builds, runs, and summarizes one cluster scenario under
// a hashing tracer. The trace digest is a bit-exact fingerprint of the
// run: two calls with one spec must return equal TraceSHA values.
func RunClusterPoint(spec ClusterRunSpec) ClusterRunResult {
	eng := sim.NewEngine()
	h := trace.NewHasher()
	eng.SetTracer(h)
	c, err := cluster.New(eng, spec.Config)
	if err != nil {
		panic(err)
	}
	if err := cluster.Generate(c, cluster.WorkloadConfig{
		Tenants: spec.Tenants,
		Jobs:    spec.Jobs,
		Seed:    spec.Seed,
	}); err != nil {
		panic(err)
	}
	spec.Chaos.ApplyTo(eng, c)
	t0 := time.Now()
	c.Run()
	return ClusterRunResult{
		Report:        c.Report(),
		TraceSHA:      h.Sum(),
		TraceEvents:   h.Events(),
		WallSeconds:   time.Since(t0).Seconds(),
		Topology:      c.Topo.Describe(),
		ExactlyOnce:   c.VerifyExactlyOnce(),
		DegradedAtEnd: c.DegradedShards(),
	}
}

// ClusterScale is S5: the cluster-scale scenario harness. It sweeps host
// count at fixed per-host load (10 tenants, 20 jobs per host), so aggregate
// goodput must grow with the cluster, then sweeps shard count at 300 hosts
// to show scheduler decision latency staying bounded as the control plane
// scales out. The 1000-host point runs twice and its traces must be
// bit-identical — the d7024e-style ≥1000-node emulation bar with
// deterministic replay.
func ClusterScale() Result {
	const seed = 1337
	scaleTable := metrics.Table{
		Title:   "S5a — scaling curve (leaf-spine, 8 shards, 5% control drop)",
		Headers: []string{"hosts", "tenants", "jobs", "virtual s", "goodput Gbps", "p50 µs", "p99 µs", "lost", "trace events"},
	}
	var goodput metrics.Series
	goodput.Name = "hosts-goodputGbps"
	var sha1000 string
	replayed := false
	for _, hosts := range []int{100, 300, 1000} {
		spec := ClusterRunSpec{
			Config:  cluster.Config{Hosts: hosts, Shards: 8, DropPct: 5, Seed: seed},
			Tenants: 10 * hosts,
			Jobs:    20 * hosts,
		}
		res := RunClusterPoint(spec)
		rep := res.Report
		if hosts == 1000 {
			// Replay contract at full scale: a second run of the same seed
			// must hash to the same trace.
			replayed = RunClusterPoint(spec).TraceSHA == res.TraceSHA
			sha1000 = res.TraceSHA
		}
		goodput.Add(float64(hosts), rep.AggregateGoodputGbps)
		scaleTable.AddRow(
			fmt.Sprintf("%d", hosts),
			fmt.Sprintf("%d", rep.Tenants),
			fmt.Sprintf("%d", rep.Jobs),
			fmt.Sprintf("%.1f", rep.VirtualSeconds),
			fmt.Sprintf("%.1f", rep.AggregateGoodputGbps),
			fmt.Sprintf("%.1f", rep.DecisionP50us),
			fmt.Sprintf("%.1f", rep.DecisionP99us),
			fmt.Sprintf("%d", rep.JobsLost),
			fmt.Sprintf("%d", res.TraceEvents),
		)
	}
	shardTable := metrics.Table{
		Title:   "S5b — shard sweep (300 hosts, 3000 tenants, 6000 jobs)",
		Headers: []string{"shards", "goodput Gbps", "decisions", "p50 µs", "p99 µs", "digests", "adjusts"},
	}
	worstP99 := 0.0
	for _, shards := range []int{1, 2, 4, 8} {
		res := RunClusterPoint(ClusterRunSpec{
			Config:  cluster.Config{Hosts: 300, Shards: shards, DropPct: 5, Seed: seed},
			Tenants: 3000,
			Jobs:    6000,
		})
		rep := res.Report
		worstP99 = math.Max(worstP99, rep.DecisionP99us)
		shardTable.AddRow(
			fmt.Sprintf("%d", shards),
			fmt.Sprintf("%.1f", rep.AggregateGoodputGbps),
			fmt.Sprintf("%d", rep.Decisions),
			fmt.Sprintf("%.1f", rep.DecisionP50us),
			fmt.Sprintf("%.1f", rep.DecisionP99us),
			fmt.Sprintf("%d", rep.Digests),
			fmt.Sprintf("%d", rep.Adjusts),
		)
	}
	return Result{
		ID:     "S5",
		Title:  "Cluster scale: leaf-spine fabric, sharded control plane, 1000 hosts",
		Tables: []metrics.Table{scaleTable, shardTable},
		Series: []metrics.Series{goodput},
		Chart: &chart.Options{
			XLabel: "hosts",
			YLabel: "aggregate goodput (Gbps)",
		},
		Claims: []Claim{
			{"goodput at 100 hosts (Gbps)", "", goodput.Values[0], over(0), inf},
			{"smallest goodput step as hosts grow", "", minStep(goodput.Values), over(1), inf},
			gate("1000-host replay trace identical", replayed),
			// Deliberately loose (wall-clock measurements on shared CI
			// hardware jitter), but a pathological control plane — one
			// shard scanning a cluster-wide queue for milliseconds — fails.
			{"worst decision p99 over the shard sweep (µs)", "", worstP99, -inf, 100_000},
		},
		Notes: []string{
			"per-host load held constant (10 tenants, 20 jobs per host): goodput scales with hosts",
			fmt.Sprintf("1000-host trace sha256 %s…", sha1000[:16]),
			"decision latency is wall-clock (observational); it never enters the simulation or trace",
		},
	}
}
