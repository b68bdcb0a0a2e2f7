// Package gridftp models the GridFTP baseline the paper compares against
// (§4.3): a TCP-based transfer tool whose per-stream data path runs on a
// single thread that alternates between file I/O and socket work, uses the
// page cache (no direct I/O), and pays the full kernel TCP stack cost.
//
// The three GridFTP handicaps the paper identifies map directly onto the
// model:
//
//  1. TCP stack processing — the tcpstack cost model (copies, sys, irq);
//  2. single-threaded design — the stage costs are charged to the same
//     thread as the socket costs, so the per-thread core limiter
//     serializes I/O and networking exactly as a blocking loop does;
//  3. no direct I/O — sources/sinks run buffered, adding a page-cache
//     copy per byte on the front-end hosts.
package gridftp

import (
	"fmt"
	"math"

	"e2edt/internal/fabric"
	"e2edt/internal/fluid"
	"e2edt/internal/host"
	"e2edt/internal/numa"
	"e2edt/internal/pipe"
	"e2edt/internal/sim"
	"e2edt/internal/tcpstack"
	"e2edt/internal/units"
)

// Config describes a GridFTP invocation (globus-url-copy style).
type Config struct {
	// Streams is the parallel TCP stream count (-p), round-robin over
	// links.
	Streams int
	// BlockSize is the I/O block size (-bs); smaller blocks raise
	// per-block syscall overhead.
	BlockSize int64
	// Policy is numactl binding (the paper binds GridFTP too, for a fair
	// comparison).
	Policy numa.Policy
	// TCP is the kernel stack cost model.
	TCP tcpstack.Params
	// SyscallCyclesPerBlock is the per-block syscall/bookkeeping cost.
	SyscallCyclesPerBlock float64
}

// DefaultConfig mirrors the paper's GridFTP setup.
func DefaultConfig() Config {
	return Config{
		Streams:               3,
		BlockSize:             4 * units.MB,
		Policy:                numa.PolicyBind,
		TCP:                   tcpstack.DefaultParams(),
		SyscallCyclesPerBlock: 6000,
	}
}

// Validate reports config errors.
func (c Config) Validate() error {
	switch {
	case c.Streams <= 0:
		return fmt.Errorf("gridftp: Streams must be positive")
	case c.BlockSize <= 0:
		return fmt.Errorf("gridftp: BlockSize must be positive")
	}
	return nil
}

// Transfer is a running (or finished) GridFTP session.
type Transfer struct {
	Cfg    Config
	Size   float64
	Sender *host.Host

	transfers []*fluid.Transfer
	sim       *fluid.Sim
	eng       *sim.Engine
	started   sim.Time
	finished  sim.Time
	done      int
	// OnComplete fires when all streams drain (finite transfers).
	OnComplete func(now sim.Time)
}

// Start launches a GridFTP transfer of size bytes (math.Inf(1) for
// open-ended) from senderHost. src runs buffered on the sender thread, dst
// on the receiver thread.
func Start(links []*fabric.Link, senderHost *host.Host, cfg Config,
	src, dst pipe.Stage, size float64, onComplete func(now sim.Time)) (*Transfer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(links) == 0 {
		return nil, fmt.Errorf("gridftp: no links")
	}
	if size <= 0 && !math.IsInf(size, 1) {
		return nil, fmt.Errorf("gridftp: size must be positive or +Inf")
	}
	t := &Transfer{
		Cfg: cfg, Size: size, Sender: senderHost,
		sim: links[0].Sim(), eng: links[0].Engine(),
		OnComplete: onComplete,
	}
	t.started = t.eng.Now()

	perStream := size
	if !math.IsInf(size, 1) {
		perStream = size / float64(cfg.Streams)
	}
	bs := float64(cfg.BlockSize)
	for i := 0; i < cfg.Streams; i++ {
		l := links[i%len(links)]
		var sndNIC *host.Device
		switch senderHost {
		case l.A.Host:
			sndNIC = l.A
		case l.B.Host:
			sndNIC = l.B
		default:
			return nil, fmt.Errorf("gridftp: sender %s not on link %s", senderHost.Name, l.Cfg.Name)
		}
		rcvNIC := l.Peer(sndNIC)

		// GridFTP is one process per side; numactl binds that whole
		// process — all of its streams — to a single NUMA node (§4.3).
		// Unlike RFTP, it has no per-NIC NUMA awareness of its own, so
		// bi-directional runs pile both directions' copies onto one
		// node's memory controller (Figure 11's "33% improvement only").
		mkProc := func(h *host.Host, nic *host.Device, role string) *host.Process {
			if cfg.Policy == numa.PolicyBind {
				return h.NewProcess(fmt.Sprintf("gridftp-%s/%s/%d", role, l.Cfg.Name, i), numa.PolicyBind, h.M.Node(0))
			}
			return h.NewProcess(fmt.Sprintf("gridftp-%s/%s/%d", role, l.Cfg.Name, i), cfg.Policy, nil)
		}
		// One thread per side does everything (single-threaded design).
		sndThr := mkProc(sndNIC.Host, sndNIC, "c").NewThread()
		rcvThr := mkProc(rcvNIC.Host, rcvNIC, "s").NewThread()
		mkBuf := func(th *host.Thread, h *host.Host) *numa.Buffer {
			if node := th.Node(); node != nil {
				return h.M.NewBuffer("gridftp-buf", node)
			}
			return h.M.InterleavedBuffer("gridftp-buf")
		}
		sndBuf := mkBuf(sndThr, sndNIC.Host)
		rcvBuf := mkBuf(rcvThr, rcvNIC.Host)

		conn := tcpstack.Dial(l, sndNIC, sndThr, rcvThr, cfg.TCP)
		var stageErr error
		opt := tcpstack.FlowOptions{
			SrcBuf: sndBuf,
			DstBuf: rcvBuf,
			Extra: func(f *fluid.Flow) {
				// The same threads pay the I/O costs: the per-thread core
				// limiter then serializes I/O against socket work.
				if err := src.Attach(f, sndThr, sndBuf, 1); err != nil {
					stageErr = err
				}
				if err := dst.Attach(f, rcvThr, rcvBuf, 1); err != nil {
					stageErr = err
				}
				sndThr.ChargeCPU(f, cfg.SyscallCyclesPerBlock/bs, host.CatSys)
				rcvThr.ChargeCPU(f, cfg.SyscallCyclesPerBlock/bs, host.CatSys)
			},
		}
		tr := conn.Stream(perStream, opt, func(now sim.Time) {
			t.done++
			if t.done == cfg.Streams {
				t.finished = now
				if t.OnComplete != nil {
					t.OnComplete(now)
				}
			}
		})
		if stageErr != nil {
			return nil, fmt.Errorf("gridftp: stage: %w", stageErr)
		}
		t.transfers = append(t.transfers, tr)
	}
	return t, nil
}

// Transferred returns total payload bytes moved.
func (t *Transfer) Transferred() float64 {
	t.sim.Sync()
	sum := 0.0
	for _, tr := range t.transfers {
		sum += tr.Transferred()
	}
	return sum
}

// Bandwidth returns the average payload rate since start.
func (t *Transfer) Bandwidth() float64 {
	end := t.eng.Now()
	if t.finished > 0 {
		end = t.finished
	}
	el := float64(end - t.started)
	if el <= 0 {
		return 0
	}
	return t.Transferred() / el
}

// Finished returns the completion time (zero while running).
func (t *Transfer) Finished() sim.Time { return t.finished }

// Stop cancels an open-ended transfer.
func (t *Transfer) Stop() {
	for _, tr := range t.transfers {
		t.sim.Cancel(tr)
	}
}
