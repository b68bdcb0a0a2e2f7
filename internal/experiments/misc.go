package experiments

import (
	"fmt"
	"math"

	"e2edt/internal/blockdev"
	"e2edt/internal/chart"
	"e2edt/internal/fluid"
	"e2edt/internal/host"
	"e2edt/internal/iperf"
	"e2edt/internal/metrics"
	"e2edt/internal/numa"
	"e2edt/internal/pipe"
	"e2edt/internal/rftp"
	"e2edt/internal/sim"
	"e2edt/internal/testbed"
	"e2edt/internal/units"
)

func init() {
	register("F4", CostBreakdown40G)
	register("T1", TestbedTable)
	register("A1", SSDThermalThrottle)
}

// CostBreakdown40G regenerates Figures 3–4: a five-minute /dev/zero →
// /dev/null transfer at ≈39 Gbps over one RoCE link, RFTP versus TCP
// (iperf), with CPU cost broken into user protocol, kernel protocol, copy,
// interrupt, loading and offloading, summed over both ends.
// Paper: RFTP 122% total (56% user protocol); TCP 642% total (311% sys,
// 213% copy); loading ≈70%; offloading <1%.
func CostBreakdown40G() Result {
	const window = 20.0

	// RFTP over one 40G link.
	pr := testbed.NewMotivatingPair()
	rcfg := rftp.DefaultConfig()
	rcfg.Streams = 1
	tr, err := rftp.Start(pr.Links[:1], pr.A, rcfg, rftp.DefaultParams(),
		pipe.Zero{}, pipe.Null{}, math.Inf(1), nil)
	if err != nil {
		panic(err)
	}
	pr.Eng.RunFor(window)
	rftpGbps := units.ToGbps(tr.Transferred() / window)
	tr.Stop()
	rftpCPU := mergeReports(pr.A.HostCPUReport(), pr.B.HostCPUReport())

	// iperf (TCP) over one 40G link; parallel streams reach the same
	// ≈39 Gbps operating point.
	pi := testbed.NewMotivatingPair()
	icfg := iperf.DefaultConfig()
	icfg.StreamsPerLink = 4
	icfg.Bidirectional = false
	icfg.LargeBuffer = false
	icfg.Policy = numa.PolicyBind
	icfg.SourceCyclesPerByte = pipe.DefaultZeroCycles
	icfg.Duration = sim.Duration(window)
	rep := iperf.Run(pi.Links[:1], icfg)
	tcpGbps := units.ToGbps(rep.Aggregate)
	tcpCPU := mergeReports(pi.A.HostCPUReport(), pi.B.HostCPUReport())

	cats := []string{host.CatUser, host.CatSys, host.CatCopy, host.CatIRQ, host.CatLoad, host.CatIO}
	tb := metrics.Table{
		Title:   "Data transfer cost at ≈39-40 Gbps, both ends summed (Fig. 4)",
		Headers: []string{"tool", "rate", "total CPU", "user", "sys", "copy", "irq", "load", "offload"},
	}
	row := func(name string, gbps float64, cpu host.CPUReport) {
		cells := []string{name, fmt.Sprintf("%.1f Gbps", gbps),
			fmt.Sprintf("%.0f%%", cpu.TotalPercent(window))}
		for _, c := range cats {
			cells = append(cells, fmt.Sprintf("%.0f%%", cpu.Percent(c, window)))
		}
		tb.AddRow(cells...)
	}
	row("RFTP (RDMA)", rftpGbps, rftpCPU)
	row("iperf (TCP)", tcpGbps, tcpCPU)

	return Result{
		ID:     "F4",
		Title:  "Cost breakdown of 40 Gbps memory-to-memory transfer",
		Tables: []metrics.Table{tb},
		Claims: []Claim{
			{"RFTP total CPU (%)", "122%", rftpCPU.TotalPercent(window), 90, 170},
			{"TCP total CPU (%)", "642%", tcpCPU.TotalPercent(window), 520, 720},
			{"TCP kernel protocol (sys) CPU (%)", "311%", tcpCPU.Percent(host.CatSys, window), 250, 370},
			{"TCP user↔kernel copy CPU (%)", "213%", tcpCPU.Percent(host.CatCopy, window), 150, inf},
			{"RDMA copy CPU (%)", "0% (zero copy)", rftpCPU.Percent(host.CatCopy, window), 0, 0},
		},
		Notes: []string{
			"RDMA copy cost is 0% by construction (zero copy); offload <1% in both cases",
		},
	}
}

func mergeReports(a, b host.CPUReport) host.CPUReport {
	out := host.CPUReport{ByCategory: map[string]float64{}}
	for _, r := range []host.CPUReport{a, b} {
		for k, v := range r.ByCategory {
			out.ByCategory[k] += v
			out.Total += v
		}
	}
	return out
}

// TestbedTable regenerates Table 1: testbed host configurations.
func TestbedTable() Result {
	tb := metrics.Table{
		Title:   "Testbed configuration (Table 1)",
		Headers: []string{"", "Front-end LAN", "Back-end LAN", "Front-end WAN"},
	}
	fe, be, wan := testbed.FrontEndLAN("fe"), testbed.BackEndLAN("be"), testbed.WANHost("wan")
	cpu := func(c numa.Config) string {
		return fmt.Sprintf("%.1f GHz × %d cores", c.CoreHz/1e9, c.Nodes*c.CoresPerNode)
	}
	tb.AddRow("CPU", cpu(fe), cpu(be), cpu(wan))
	tb.AddRow("NUMA nodes", fmt.Sprint(fe.Nodes), fmt.Sprint(be.Nodes), fmt.Sprint(wan.Nodes))
	tb.AddRow("Memory",
		units.FormatBytes(fe.MemBytes), units.FormatBytes(be.MemBytes), units.FormatBytes(wan.MemBytes))
	tb.AddRow("Network", "3× 40G RoCE QDR", "2× 56G IB FDR", "1× 40G RoCE QDR")
	lan, ib, ani := testbed.RoCE40("r"), testbed.IBFDR56("i"), testbed.ANIWAN("a")
	tb.AddRow("MTU", fmt.Sprint(lan.MTU), fmt.Sprint(ib.MTU), fmt.Sprint(ani.MTU))
	tb.AddRow("RTT", fmt.Sprintf("%.3f ms", float64(lan.RTT)*1e3),
		fmt.Sprintf("%.3f ms", float64(ib.RTT)*1e3), fmt.Sprintf("%.0f ms", float64(ani.RTT)*1e3))
	return Result{
		ID:     "T1",
		Title:  "Testbed configuration",
		Tables: []metrics.Table{tb},
	}
}

// SSDThermalThrottle regenerates the §4.1 ablation: sustained writes to the
// PCIe flash device trigger thermal protection and collapse throughput to
// ≈500 MB/s, which is why the paper's back end is tmpfs instead.
func SSDThermalThrottle() Result {
	eng := sim.NewEngine()
	s := fluid.NewSim(eng)
	ssd := blockdev.NewSSD(s, blockdev.DefaultSSDConfig("fusion-io", units.TB))
	f := s.NewFlow("sustained-write", math.Inf(1))
	ssd.AttachIO(f, true, 4*units.MB, 1)
	tr := &fluid.Transfer{Flow: f, Remaining: math.Inf(1)}
	s.Start(tr)
	sampler := metrics.NewSampler(eng, "ssd-write-MBps", 5, func() float64 {
		s.Sync()
		return tr.Transferred()
	})
	eng.RunUntil(200)
	sampler.Stop()
	series := sampler.Series
	for i := range series.Values {
		series.Values[i] = units.ToMBps(series.Values[i])
	}
	healthy := series.Values[0]
	throttled := series.Values[series.Len()-1]

	tb := metrics.Table{
		Title:   "Sustained sequential write on PCIe flash (§4.1)",
		Headers: []string{"phase", "rate"},
	}
	tb.AddRow("healthy", fmt.Sprintf("%.0f MB/s", healthy))
	tb.AddRow("thermally throttled", fmt.Sprintf("%.0f MB/s", throttled))
	return Result{
		ID:     "A1",
		Title:  "SSD thermal throttling ablation",
		Tables: []metrics.Table{tb},
		Series: []metrics.Series{series},
		Chart:  &chart.Options{XLabel: "seconds", YLabel: "MB/s"},
		Claims: []Claim{
			{"healthy write rate (MB/s)", "", healthy, 1200, inf},
			{"throttled write rate (MB/s)", "≈500 MB/s after ~100 GB", throttled, 490, 510},
			gate("device in thermal protection at the end", ssd.Throttled()),
		},
	}
}
