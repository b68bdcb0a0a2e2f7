// Package iperf reimplements the iperf TCP bandwidth tool over the
// simulated stack, as used twice in the paper:
//
//   - §2.3 motivating experiment: bi-directional streams over three 40 Gbps
//     RoCE links with a cache-defeating large sender buffer, comparing the
//     default Linux scheduler against NUMA binding (83.5 → 91.8 Gbps).
//   - §3.2/Figure 4: a /dev/zero → /dev/null stream at 39 Gbps whose CPU
//     breakdown is contrasted with RFTP's.
//
// Each stream is one TCP connection; under NUMA tuning the per-link worker
// threads are bound to the NIC's NUMA node, otherwise they float.
package iperf

import (
	"fmt"

	"e2edt/internal/fabric"
	"e2edt/internal/fluid"
	"e2edt/internal/host"
	"e2edt/internal/numa"
	"e2edt/internal/placer"
	"e2edt/internal/sim"
	"e2edt/internal/tcpstack"
	"e2edt/internal/units"
)

// Config parameterizes a run.
type Config struct {
	// StreamsPerLink is the TCP connection count per link per direction.
	StreamsPerLink int
	// Policy: PolicyBind pins each stream's threads to its NIC's node;
	// PolicyDefault leaves them to the scheduler.
	Policy numa.Policy
	// LargeBuffer makes the sender cycle through a buffer larger than
	// cache, so every send pays a real memory read (the paper's trick to
	// defeat iperf's default cache-resident behaviour).
	LargeBuffer bool
	// SourceCyclesPerByte models data-generation cost (≈0.32 cyc/B for
	// the kernel zero-fill when reading /dev/zero; ~0 otherwise).
	SourceCyclesPerByte float64
	// Bidirectional runs streams both ways simultaneously.
	Bidirectional bool
	// Duration is the measurement window.
	Duration sim.Duration
	// TCP is the kernel stack cost model.
	TCP tcpstack.Params
}

// DefaultConfig mirrors the §2.3 setup.
func DefaultConfig() Config {
	return Config{
		StreamsPerLink: 1,
		Policy:         numa.PolicyDefault,
		LargeBuffer:    true,
		Bidirectional:  true,
		Duration:       10,
		TCP:            tcpstack.DefaultParams(),
	}
}

// Report summarizes a run.
type Report struct {
	// Aggregate is total payload bandwidth across all streams and
	// directions, bytes/second.
	Aggregate float64
	// PerStream lists each stream's bandwidth in creation order.
	PerStream []float64
	// Elapsed is the measurement window in seconds.
	Elapsed float64
	// Placements and Migrations count adaptive-placer commits (PolicyAuto
	// runs only; zero otherwise).
	Placements int
	Migrations int
}

// Run executes iperf over the given links and returns the measured report.
// Sender-side processes are named "iperf-c", receivers "iperf-s", so CPU
// reports can be split per role.
func Run(links []*fabric.Link, cfg Config) Report {
	if len(links) == 0 {
		panic("iperf: no links")
	}
	if cfg.StreamsPerLink <= 0 || cfg.Duration <= 0 {
		panic("iperf: StreamsPerLink and Duration must be positive")
	}
	s := links[0].Sim()
	eng := links[0].Engine()

	// Under PolicyAuto an adaptive engine places each stream's endpoints at
	// runtime; threads start unpinned and buffers interleaved, exactly like
	// PolicyDefault, and converge from there.
	var auto *placer.Engine
	if cfg.Policy == numa.PolicyAuto {
		auto = placer.New(s)
	}

	var transfers []*fluid.Transfer
	mkStream := func(l *fabric.Link, from *host.Device) {
		to := l.Peer(from)
		sndHost, rcvHost := from.Host, to.Host
		var sndProc, rcvProc *host.Process
		if cfg.Policy == numa.PolicyBind {
			sndProc = sndHost.NewProcess(fmt.Sprintf("iperf-c/%s", l.Cfg.Name), numa.PolicyBind, from.Node)
			rcvProc = rcvHost.NewProcess(fmt.Sprintf("iperf-s/%s", l.Cfg.Name), numa.PolicyBind, to.Node)
		} else {
			sndProc = sndHost.NewProcess(fmt.Sprintf("iperf-c/%s", l.Cfg.Name), cfg.Policy, nil)
			rcvProc = rcvHost.NewProcess(fmt.Sprintf("iperf-s/%s", l.Cfg.Name), cfg.Policy, nil)
		}
		for i := 0; i < cfg.StreamsPerLink; i++ {
			snd := sndProc.NewThread()
			rcv := rcvProc.NewThread()
			conn := tcpstack.Dial(l, from, snd, rcv, cfg.TCP)
			opt := tcpstack.FlowOptions{}
			if cfg.LargeBuffer {
				if node := snd.Node(); node != nil {
					opt.SrcBuf = sndHost.M.NewBuffer("iperf-src", node)
				} else {
					opt.SrcBuf = sndHost.M.InterleavedBuffer("iperf-src")
				}
			}
			if cfg.SourceCyclesPerByte > 0 {
				cy := cfg.SourceCyclesPerByte
				opt.Extra = func(f *fluid.Flow) {
					snd.ChargeCPU(f, cy, host.CatLoad)
				}
			}
			tr := conn.Stream(1e30, opt, nil)
			transfers = append(transfers, tr)
			if auto != nil {
				var sndBufs []*numa.Buffer
				if opt.SrcBuf != nil {
					sndBufs = append(sndBufs, opt.SrcBuf)
				}
				// The cache-defeating source buffer's hot working set is
				// what a lazy page migration actually copies.
				auto.AddEntity(fmt.Sprintf("iperf-c/%s/%d", l.Cfg.Name, i),
					sndHost.M, []*host.Thread{snd}, sndBufs, 64*float64(units.MB))
				auto.AddEntity(fmt.Sprintf("iperf-s/%s/%d", l.Cfg.Name, i),
					rcvHost.M, []*host.Thread{rcv}, nil, 0)
				o := opt
				auto.Track(tr.Flow, func(f *fluid.Flow) { conn.Recharge(f, o) })
			}
		}
	}

	for _, l := range links {
		mkStream(l, l.A)
		if cfg.Bidirectional {
			mkStream(l, l.B)
		}
	}

	start := eng.Now()
	eng.RunUntil(start + sim.Time(cfg.Duration))
	s.Sync()
	rep := Report{Elapsed: float64(cfg.Duration)}
	for _, tr := range transfers {
		bw := tr.Transferred() / float64(cfg.Duration)
		rep.PerStream = append(rep.PerStream, bw)
		rep.Aggregate += bw
		if auto != nil {
			auto.Untrack(tr.Flow)
		}
		s.Cancel(tr)
	}
	if auto != nil {
		rep.Placements = auto.Placements()
		rep.Migrations = auto.Migrations()
	}
	return rep
}
