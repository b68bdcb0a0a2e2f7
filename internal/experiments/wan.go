package experiments

import (
	"fmt"
	"math"

	"e2edt/internal/chart"
	"e2edt/internal/core"
	"e2edt/internal/host"
	"e2edt/internal/metrics"
	"e2edt/internal/pipe"
	"e2edt/internal/rftp"
	"e2edt/internal/sim"
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

// TransferRunSpec is one RFTP transfer: memory to memory over the ANI WAN
// loop, or SAN to SAN across the Figure 5 LAN system. It is shared by F13
// and cmd/rftp.
type TransferRunSpec struct {
	Config rftp.Config
	// WAN selects the WAN loop; false runs the LAN system with default
	// options.
	WAN bool
	// Size is the payload in bytes; +Inf runs open-ended for Window.
	Size   float64
	Window sim.Duration
	// Tracer, when non-nil, receives the run's trace events.
	Tracer sim.Tracer
}

// TransferRunResult is one transfer's outcome.
type TransferRunResult struct {
	// Moved is the payload delivered, Rate the transfer's bandwidth over
	// its active span (rftp.Transfer.Bandwidth), both in bytes (per s).
	Moved, Rate float64
	// DoneAt is the completion time (zero for an open-ended run).
	DoneAt sim.Time
	// SenderCPU and ReceiverCPU are the front ends' CPU percent over the
	// run's virtual time.
	SenderCPU, ReceiverCPU float64
}

// RunTransferPoint runs one transfer: a finite one to completion, an
// open-ended one for Window, after which it is stopped. The error reports
// a config the system or RFTP rejects.
func RunTransferPoint(spec TransferRunSpec) (TransferRunResult, error) {
	var (
		r        TransferRunResult
		eng      *sim.Engine
		snd, rcv *host.Host
		start    func(done func(sim.Time)) (*rftp.Transfer, error)
	)
	if spec.WAN {
		w := testbed.NewWAN()
		eng, snd, rcv = w.Eng, w.A, w.B
		start = func(done func(sim.Time)) (*rftp.Transfer, error) {
			return rftp.Start(w.LinkSlice(), w.A, spec.Config, rftp.DefaultParams(),
				pipe.Zero{}, pipe.Null{}, spec.Size, done)
		}
	} else {
		sys, err := core.NewSystem(core.DefaultOptions())
		if err != nil {
			return r, err
		}
		eng, snd, rcv = sys.Engine(), sys.A.Front, sys.B.Front
		start = func(done func(sim.Time)) (*rftp.Transfer, error) {
			return sys.StartRFTP(core.Forward, spec.Config, rftp.DefaultParams(), spec.Size, done)
		}
	}
	if spec.Tracer != nil {
		eng.SetTracer(spec.Tracer)
	}
	tr, err := start(func(now sim.Time) { r.DoneAt = now })
	if err != nil {
		return r, err
	}
	if math.IsInf(spec.Size, 1) {
		eng.RunFor(spec.Window)
		r.Moved, r.Rate = tr.Transferred(), tr.Bandwidth()
		tr.Stop()
	} else {
		eng.Run()
		r.Moved, r.Rate = tr.Transferred(), tr.Bandwidth()
	}
	el := float64(eng.Now())
	r.SenderCPU = snd.HostCPUReport().TotalPercent(el)
	r.ReceiverCPU = rcv.HostCPUReport().TotalPercent(el)
	return r, nil
}

// wanPoint runs one RFTP configuration over the ANI loop for 20 s and
// returns (payload bytes/s, sender CPU %, receiver CPU %).
func wanPoint(streams int, blockSize int64) (float64, float64, float64) {
	const window = 20.0
	cfg := rftp.DefaultConfig()
	cfg.Streams = streams
	cfg.BlockSize = blockSize
	r, err := RunTransferPoint(TransferRunSpec{Config: cfg, WAN: true, Size: math.Inf(1), Window: window})
	if err != nil {
		panic(err)
	}
	return r.Moved / window, r.SenderCPU, r.ReceiverCPU
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
