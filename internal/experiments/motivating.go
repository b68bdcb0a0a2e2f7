package experiments

import (
	"fmt"

	"e2edt/internal/host"
	"e2edt/internal/iperf"
	"e2edt/internal/metrics"
	"e2edt/internal/numa"
	"e2edt/internal/stream"
	"e2edt/internal/testbed"
	"e2edt/internal/units"
)

func init() {
	register("E1", MotivatingIperf)
	register("E2", StreamTriad)
}

// MotivatingIperf regenerates the §2.3 motivating experiment: bi-directional
// iperf over 3×40 Gbps RoCE with cache-defeating buffers, default scheduling
// versus NUMA binding. Paper: 83.5 → 91.8 Gbps (+10%), with the
// user↔kernel copy routine at ≈35% of CPU.
func MotivatingIperf() Result {
	run := func(policy numa.Policy) (float64, float64) {
		p := testbed.NewMotivatingPair()
		cfg := iperf.DefaultConfig()
		cfg.Policy = policy
		rep := iperf.Run(p.Links, cfg)
		cpu := p.A.HostCPUReport()
		copyShare := 0.0
		if cpu.Total > 0 {
			copyShare = cpu.ByCategory[host.CatCopy] / cpu.Total
		}
		return rep.Aggregate, copyShare
	}
	defBW, defCopy := run(numa.PolicyDefault)
	bindBW, bindCopy := run(numa.PolicyBind)

	tb := metrics.Table{
		Title:   "iperf bi-directional aggregate over 3×40G RoCE (§2.3)",
		Headers: []string{"scheduling", "aggregate", "copy share of CPU"},
	}
	tb.AddRow("default", units.FormatRate(defBW), fmt.Sprintf("%.0f%%", defCopy*100))
	tb.AddRow("NUMA-tuned", units.FormatRate(bindBW), fmt.Sprintf("%.0f%%", bindCopy*100))

	return Result{
		ID:     "E1",
		Title:  "Motivating experiment: iperf default vs NUMA-tuned",
		Tables: []metrics.Table{tb},
		Claims: []Claim{
			{"default aggregate (Gbps)", "83.5 Gbps", units.ToGbps(defBW), 75, 92},
			{"NUMA-tuned aggregate (Gbps)", "91.8 Gbps", units.ToGbps(bindBW), 82, 101},
			{"NUMA-tuned/default aggregate", "1.10 (+10%)", bindBW / defBW, 1.04, 1.20},
			{"copy routines share of CPU (%)", "≈35%", defCopy * 100, 25, 45},
		},
	}
}

// StreamTriad regenerates the STREAM measurement in §2.3: Triad peak
// ≈50 GB/s across the front-end host's two NUMA nodes.
func StreamTriad() Result {
	tb := metrics.Table{
		Title:   "STREAM on the front-end host (§2.3)",
		Headers: []string{"kernel", "threads", "placement", "bandwidth"},
	}
	var triad float64
	for _, k := range []stream.Kernel{stream.Copy, stream.Scale, stream.Add, stream.Triad} {
		for _, policy := range []numa.Policy{numa.PolicyBind, numa.PolicyDefault} {
			h := testbed.NewMotivatingPair().A // the front-end host
			cfg := stream.DefaultConfig(h)
			cfg.Kernel = k
			cfg.Policy = policy
			res := stream.Run(h, cfg)
			tb.AddRow(k.String(), fmt.Sprintf("%d", cfg.Threads), policy.String(),
				fmt.Sprintf("%.1f GB/s", units.ToGBps(res.Bandwidth)))
			if k == stream.Triad && policy == numa.PolicyBind {
				triad = res.Bandwidth
			}
		}
	}
	return Result{
		ID:     "E2",
		Title:  "STREAM Triad peak memory bandwidth",
		Tables: []metrics.Table{tb},
		Claims: []Claim{
			{"Triad, bound, both nodes (GB/s)", "50 GB/s", units.ToGBps(triad), 48, 52},
		},
	}
}
