package experiments

import (
	"fmt"
	"math"

	"e2edt/internal/chart"
	"e2edt/internal/metrics"
	"e2edt/internal/pipe"
	"e2edt/internal/rftp"
	"e2edt/internal/testbed"
	"e2edt/internal/units"
)

func init() {
	register("F13", WANBandwidth)
}

// wanStreams and wanBlockSizes are the Figure 13/14 sweep.
var (
	wanStreams    = []int{1, 2, 4, 8}
	wanBlockSizes = []int64{64 * units.KB, 256 * units.KB, units.MB, 4 * units.MB, 16 * units.MB}
)

// wanPoint runs one RFTP configuration over the ANI loop and returns
// (payload bytes/s, sender CPU %, receiver CPU %).
func wanPoint(streams int, blockSize int64) (float64, float64, float64) {
	const window = 20.0
	w := testbed.NewWAN()
	cfg := rftp.DefaultConfig()
	cfg.Streams = streams
	cfg.BlockSize = blockSize
	tr, err := rftp.Start(w.LinkSlice(), w.A, cfg, rftp.DefaultParams(),
		pipe.Zero{}, pipe.Null{}, math.Inf(1), nil)
	if err != nil {
		panic(err)
	}
	w.Eng.RunFor(window)
	bw := tr.Transferred() / window
	tr.Stop()
	return bw,
		w.A.HostCPUReport().TotalPercent(window),
		w.B.HostCPUReport().TotalPercent(window)
}

// WANBandwidth regenerates Figures 13 and 14 from one sweep: RFTP payload
// bandwidth over the 40 Gbps / 95 ms ANI loop across block sizes and stream
// counts, and the sender (14a) and receiver (14b) CPU of the same runs.
// Paper: small blocks with few streams starve on the ≈475 MB BDP; large
// blocks reach 97% of the raw link rate; CPU falls as the block size grows
// (fewer control messages and work-request posts per byte).
func WANBandwidth() Result {
	headers := append([]string{"streams"}, blockHeaders()...)
	tb := metrics.Table{Title: "RFTP over 40G/95ms WAN: payload bandwidth (Fig. 13)", Headers: headers}
	snd := metrics.Table{Title: "RFTP WAN sender CPU % (Fig. 14a)", Headers: headers}
	rcv := metrics.Table{Title: "RFTP WAN receiver CPU % (Fig. 14b)", Headers: headers}
	var series []metrics.Series
	// Bandwidth must not fall along either axis: the smallest step ratio
	// along block sizes (within a row) and along streams (within a column).
	alongBlocks, alongStreams := inf, inf
	for i, streams := range wanStreams {
		s := metrics.Series{Name: fmt.Sprintf("streams=%d-Gbps", streams)}
		label := fmt.Sprintf("%d", streams)
		cells, sc, rc := []string{label}, []string{label}, []string{label}
		for j, bs := range wanBlockSizes {
			bw, sCPU, rCPU := wanPoint(streams, bs)
			g := units.ToGbps(bw)
			s.Add(float64(bs), g)
			cells = append(cells, fmt.Sprintf("%.2f", g))
			sc = append(sc, fmt.Sprintf("%.0f%%", sCPU))
			rc = append(rc, fmt.Sprintf("%.0f%%", rCPU))
			if i > 0 {
				alongStreams = math.Min(alongStreams, g/series[i-1].Values[j])
			}
		}
		alongBlocks = math.Min(alongBlocks, minStep(s.Values))
		tb.AddRow(cells...)
		snd.AddRow(sc...)
		rcv.AddRow(rc...)
		series = append(series, s)
	}
	top := series[len(series)-1].Values
	peak := top[len(top)-1]
	return Result{
		ID:     "F13",
		Title:  "RFTP WAN bandwidth and CPU vs block size and streams (Figs. 13/14)",
		Tables: []metrics.Table{tb, snd, rcv},
		Series: series,
		Chart:  &chart.Options{XLabel: "block size", YLabel: "Gbps", LogX: true},
		Claims: []Claim{
			{"smallest step along block size", "rises with block size", alongBlocks, 0.99, inf},
			{"smallest step along streams", "rises with streams", alongStreams, 0.99, inf},
			{"8 streams × 16MB (Gbps)", "≈97% of 40 Gbps raw", peak, 38, 40},
		},
		Notes: []string{
			"credit window Credits×BlockSize/RTT limits the small-block, few-stream corner",
			"per-byte CPU falls with block size (per-block posting and control-message cost amortizes)",
		},
	}
}

func blockHeaders() []string {
	out := make([]string, len(wanBlockSizes))
	for i, bs := range wanBlockSizes {
		out[i] = units.FormatBytes(bs)
	}
	return out
}
