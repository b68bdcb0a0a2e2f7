package experiments

import (
	"fmt"
	"math"

	"e2edt/internal/chart"
	"e2edt/internal/core"
	"e2edt/internal/gridftp"
	"e2edt/internal/host"
	"e2edt/internal/iscsi"
	"e2edt/internal/metrics"
	"e2edt/internal/rftp"
	"e2edt/internal/sim"
	"e2edt/internal/units"
)

func init() {
	register("F9", EndToEndThroughput)
	register("F10", EndToEndCPU)
	register("F11", BiDirectionalThroughput)
	register("F12", BiDirectionalCPU)
	register("A2", FioCeiling)
}

func mustSystem() *core.System {
	sys, err := core.NewSystem(core.DefaultOptions())
	if err != nil {
		panic(err)
	}
	return sys
}

// startFunc starts one unbounded transfer in direction d and returns its
// delivered-bytes counter.
type startFunc func(sys *core.System, d core.Direction) func() float64

func startRFTP(sys *core.System, d core.Direction) func() float64 {
	tr, err := sys.StartRFTP(d, rftp.DefaultConfig(), rftp.DefaultParams(), math.Inf(1), nil)
	if err != nil {
		panic(err)
	}
	return tr.Transferred
}

func startGridFTP(sys *core.System, d core.Direction) func() float64 {
	tr, err := sys.StartGridFTP(d, gridftp.DefaultConfig(), math.Inf(1), nil)
	if err != nil {
		panic(err)
	}
	return tr.Transferred
}

// sampleRun starts one transfer per direction on a fresh system, samples
// their summed delivered bytes every sample seconds for duration seconds,
// and returns the rate series in Gbps.
func sampleRun(name string, duration, sample sim.Duration, start startFunc, dirs ...core.Direction) metrics.Series {
	sys := mustSystem()
	var counters []func() float64
	for _, d := range dirs {
		counters = append(counters, start(sys, d))
	}
	s := metrics.NewSampler(sys.Engine(), name, sample, func() float64 {
		sum := 0.0
		for _, c := range counters {
			sum += c()
		}
		return sum
	})
	sys.Engine().RunFor(duration)
	s.Stop()
	for i := range s.Series.Values {
		s.Series.Values[i] = units.ToGbps(s.Series.Values[i])
	}
	return s.Series
}

// EndToEndThroughput regenerates Figure 9: RFTP vs GridFTP end-to-end
// throughput sampled over the paper's 25-minute window.
// Paper: ceiling 94.8 Gbps (fio write path); RFTP 91 Gbps (96%); GridFTP
// 29 Gbps (30%).
func EndToEndThroughput() Result {
	const duration = 1500.0 // 25 minutes
	const sample = 30.0

	rftpSeries := sampleRun("RFTP-Gbps", duration, sample, startRFTP, core.Forward)
	gridSeries := sampleRun("GridFTP-Gbps", duration, sample, startGridFTP, core.Forward)

	sysC := mustSystem()
	ceiling, err := sysC.MeasureCeiling(sysC.B, iscsi.OpWrite, 5)
	if err != nil {
		panic(err)
	}

	tb := metrics.Table{
		Title:   "End-to-end throughput over 25 minutes (Fig. 9)",
		Headers: []string{"tool", "steady throughput", "share of ceiling"},
	}
	rftpBW := units.FromGbps(rftpSeries.TailMean(0.9))
	gridBW := units.FromGbps(gridSeries.TailMean(0.9))
	tb.AddRow("fio write ceiling", units.FormatRate(ceiling), "100%")
	tb.AddRow("RFTP", units.FormatRate(rftpBW), fmt.Sprintf("%.0f%%", rftpBW/ceiling*100))
	tb.AddRow("GridFTP", units.FormatRate(gridBW), fmt.Sprintf("%.0f%%", gridBW/ceiling*100))
	return Result{
		ID:     "F9",
		Title:  "End-to-end data transfer throughput",
		Tables: []metrics.Table{tb},
		Series: []metrics.Series{rftpSeries, gridSeries},
		Chart:  &chart.Options{XLabel: "seconds", YLabel: "Gbps", YMin: 1e-9, YMax: 120},
		Claims: []Claim{
			{"fio write ceiling (Gbps)", "94.8 Gbps", units.ToGbps(ceiling), 85, 105},
			{"RFTP share of ceiling (%)", "96% (91 Gbps)", rftpBW / ceiling * 100, 90, inf},
			{"GridFTP share of ceiling (%)", "30% (29 Gbps)", gridBW / ceiling * 100, 20, 40},
		},
	}
}

// cpuBreakdownRow renders one host's CPU report as user/sys/copy/io rows.
func cpuBreakdownRow(tb *metrics.Table, label string, rep host.CPUReport, window float64) {
	tb.AddRow(label,
		fmt.Sprintf("%.0f%%", rep.TotalPercent(window)),
		fmt.Sprintf("%.0f%%", rep.Percent(host.CatUser, window)),
		fmt.Sprintf("%.0f%%", rep.Percent(host.CatSys, window)),
		fmt.Sprintf("%.0f%%", rep.Percent(host.CatCopy, window)),
		fmt.Sprintf("%.0f%%", rep.Percent(host.CatIO, window)+rep.Percent("journal", window)),
	)
}

// EndToEndCPU regenerates Figure 10: front-end CPU breakdown for RFTP and
// GridFTP during the unidirectional end-to-end run.
// Paper: GridFTP shows high "sys" (TCP stack) CPU; RFTP stays low.
func EndToEndCPU() Result {
	const window = 60.0
	tb := metrics.Table{
		Title:   "Front-end CPU during end-to-end transfer (Fig. 10)",
		Headers: []string{"host", "total", "user", "sys", "copy", "io"},
	}

	sysR := mustSystem()
	trR, _ := sysR.StartRFTP(core.Forward, rftp.DefaultConfig(), rftp.DefaultParams(), math.Inf(1), nil)
	sysR.Engine().RunFor(window)
	rGbps := units.ToGbps(trR.Transferred() / window)
	rSend, rRecv := sysR.A.Front.HostCPUReport(), sysR.B.Front.HostCPUReport()
	cpuBreakdownRow(&tb, "RFTP sender", rSend, window)
	cpuBreakdownRow(&tb, "RFTP receiver", rRecv, window)

	sysG := mustSystem()
	trG, _ := sysG.StartGridFTP(core.Forward, gridftp.DefaultConfig(), math.Inf(1), nil)
	sysG.Engine().RunFor(window)
	gGbps := units.ToGbps(trG.Transferred() / window)
	gSend, gRecv := sysG.A.Front.HostCPUReport(), sysG.B.Front.HostCPUReport()
	cpuBreakdownRow(&tb, "GridFTP sender", gSend, window)
	cpuBreakdownRow(&tb, "GridFTP receiver", gRecv, window)

	return Result{
		ID:     "F10",
		Title:  "CPU utilization breakdown, RFTP vs GridFTP",
		Tables: []metrics.Table{tb},
		Claims: append(hostCPUClaims(window, rSend, rRecv, gSend, gRecv),
			Claim{"GridFTP sender sys+copy share of its CPU (%)", "sys dominates (TCP stack)",
				(gSend.Percent(host.CatSys, window) + gSend.Percent(host.CatCopy, window)) /
					gSend.TotalPercent(window) * 100, 50, inf}),
		Notes: []string{
			fmt.Sprintf("at RFTP %.1f Gbps vs GridFTP %.1f Gbps", rGbps, gGbps),
		},
	}
}

// hostCPUClaims checks the four front-end hosts of Figures 10/12: every
// host shows CPU, and GridFTP's first host costs more than RFTP's.
func hostCPUClaims(window float64, rftpA, rftpB, gridA, gridB host.CPUReport) []Claim {
	least := inf
	for _, r := range []host.CPUReport{rftpA, rftpB, gridA, gridB} {
		least = math.Min(least, r.TotalPercent(window))
	}
	return []Claim{
		{"least host CPU (%)", "", least, over(0), inf},
		{"GridFTP/RFTP first-host CPU", "GridFTP high, RFTP low",
			gridA.TotalPercent(window) / rftpA.TotalPercent(window), over(1), inf},
	}
}

// BiDirectionalThroughput regenerates Figure 11: simultaneous transfers in
// both directions over the paper's 50-minute window.
// Paper: RFTP gains ≈83% over unidirectional (17% short of doubling);
// GridFTP gains only ≈33%.
func BiDirectionalThroughput() Result {
	const duration = 3000.0 // 50 minutes
	const sample = 60.0

	tb := metrics.Table{
		Title:   "Bi-directional end-to-end throughput (Fig. 11)",
		Headers: []string{"tool", "unidirectional", "bi-directional", "gain"},
	}
	var series []metrics.Series
	gains := map[string]float64{}
	for _, tl := range []struct {
		name  string
		start startFunc
	}{{"RFTP", startRFTP}, {"GridFTP", startGridFTP}} {
		uniS := sampleRun(tl.name+"-uni-Gbps", duration, sample, tl.start, core.Forward)
		bidiS := sampleRun(tl.name+"-bidi-Gbps", duration, sample, tl.start, core.Forward, core.Reverse)
		series = append(series, uniS, bidiS)
		uni, bidi := units.FromGbps(uniS.TailMean(0.9)), units.FromGbps(bidiS.TailMean(0.9))
		gain := (bidi/uni - 1) * 100
		tb.AddRow(tl.name, units.FormatRate(uni), units.FormatRate(bidi),
			fmt.Sprintf("%+.0f%%", gain))
		gains[tl.name] = gain
	}
	return Result{
		ID:     "F11",
		Title:  "Bi-directional end-to-end throughput",
		Tables: []metrics.Table{tb},
		Series: series,
		Chart:  &chart.Options{XLabel: "seconds", YLabel: "Gbps", YMin: 1e-9, YMax: 200},
		Claims: []Claim{
			{"RFTP bi-directional gain (%)", "+83%", gains["RFTP"], 50, 100},
			{"GridFTP bi-directional gain (%)", "+33%", gains["GridFTP"], 15, 50},
			{"RFTP gain over GridFTP gain (points)", "83 vs 33", gains["RFTP"] - gains["GridFTP"], over(0), inf},
		},
	}
}

// BiDirectionalCPU regenerates Figure 12: front-end CPU during the
// bi-directional run. Paper: GridFTP's CPU contention explains its poor
// bi-directional scaling.
func BiDirectionalCPU() Result {
	const window = 60.0
	tb := metrics.Table{
		Title:   "Front-end CPU during bi-directional transfer (Fig. 12)",
		Headers: []string{"host", "total", "user", "sys", "copy", "io"},
	}
	sysR := mustSystem()
	sysR.StartRFTP(core.Forward, rftp.DefaultConfig(), rftp.DefaultParams(), math.Inf(1), nil)
	sysR.StartRFTP(core.Reverse, rftp.DefaultConfig(), rftp.DefaultParams(), math.Inf(1), nil)
	sysR.Engine().RunFor(window)
	rA, rB := sysR.A.Front.HostCPUReport(), sysR.B.Front.HostCPUReport()
	cpuBreakdownRow(&tb, "RFTP host A", rA, window)
	cpuBreakdownRow(&tb, "RFTP host B", rB, window)

	sysG := mustSystem()
	sysG.StartGridFTP(core.Forward, gridftp.DefaultConfig(), math.Inf(1), nil)
	sysG.StartGridFTP(core.Reverse, gridftp.DefaultConfig(), math.Inf(1), nil)
	sysG.Engine().RunFor(window)
	gA, gB := sysG.A.Front.HostCPUReport(), sysG.B.Front.HostCPUReport()
	cpuBreakdownRow(&tb, "GridFTP host A", gA, window)
	cpuBreakdownRow(&tb, "GridFTP host B", gB, window)

	return Result{
		ID:     "F12",
		Title:  "CPU utilization breakdown, bi-directional",
		Tables: []metrics.Table{tb},
		Claims: hostCPUClaims(window, rA, rB, gA, gB),
	}
}

// FioCeiling regenerates the §4.3 fio probe: the narrowest section of the
// end-to-end path. Paper: the file-write path tops out at 94.8 Gbps, which
// bounds the end-to-end rate.
func FioCeiling() Result {
	sys := mustSystem()
	read, err := sys.MeasureCeiling(sys.A, iscsi.OpRead, 5)
	if err != nil {
		panic(err)
	}
	sys2 := mustSystem()
	write, err := sys2.MeasureCeiling(sys2.B, iscsi.OpWrite, 5)
	if err != nil {
		panic(err)
	}
	tb := metrics.Table{
		Title:   "fio probe of end-to-end path sections (§4.3)",
		Headers: []string{"path section", "bandwidth"},
	}
	tb.AddRow("file read (source SAN)", units.FormatRate(read))
	tb.AddRow("file write (sink SAN)", units.FormatRate(write))
	tb.AddRow("front-end fabric (3×40G payload)", units.FormatRate(3*units.FromGbps(40)*9000/9090))
	return Result{
		ID:     "A2",
		Title:  "End-to-end path ceiling",
		Tables: []metrics.Table{tb},
		Claims: []Claim{
			{"file write path (Gbps)", "94.8 Gbps", units.ToGbps(write), 85, 105},
			{"file read / file write bandwidth", "write path narrowest", read / write, over(1), inf},
		},
	}
}
