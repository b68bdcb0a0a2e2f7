// Package core assembles the paper's complete end-to-end data transfer
// system (Figure 5): NUMA-tuned iSER storage area networks behind each
// front-end host, XFS-like filesystems over the exported LUNs, and the
// RFTP/GridFTP transfer tools across the 3×40 Gbps front-end fabric.
//
// This is the library's top-level public surface: construct a System,
// then launch transfers with StartRFTP/StartGridFTP, or reach into the
// exposed components (testbed, sessions, filesystems) for custom
// experiments.
package core

import (
	"fmt"
	"math"

	"e2edt/internal/blockdev"
	"e2edt/internal/fabric"
	"e2edt/internal/fluid"
	"e2edt/internal/fsim"
	"e2edt/internal/gridftp"
	"e2edt/internal/host"
	"e2edt/internal/iscsi"
	"e2edt/internal/iser"
	"e2edt/internal/numa"
	"e2edt/internal/pipe"
	"e2edt/internal/placer"
	"e2edt/internal/railmgr"
	"e2edt/internal/rftp"
	"e2edt/internal/sim"
	"e2edt/internal/testbed"
	"e2edt/internal/units"
)

// Options configure system assembly. The SAN shape (six 50 GB LUNs per
// back end, as in the paper), the iSER target, datamover and filesystem
// tunings, and the recovery ladder are fixed calibrations.
type Options struct {
	// Policy is the NUMA policy applied throughout (targets, initiators,
	// transfer tools). The paper's tuned configuration is PolicyBind.
	Policy numa.Policy
	// DatasetSize is the source file's size (paper: 300 GB total).
	DatasetSize int64
	// DeviceFactory overrides LUN construction (ablations: SSD- or
	// HDD-backed back ends). Nil builds the paper's NUMA-pinned ramdisks.
	DeviceFactory func(store *host.Host, lun int, policy numa.Policy) blockdev.Device
	// Recovery enables RFTP's in-protocol failure recovery: transfers
	// launched through the System fill in ACK-timeout stream recovery
	// (ApplyRFTP). Off, the system is fail-fast. The iSCSI sessions have
	// no recovery of their own: transfers stream across the SAN, so a dark
	// SAN link stalls RFTP's ACKs and that ladder recovers it.
	Recovery bool
	// Rails, when enabled alongside Recovery, turns on multipath rail
	// management for RFTP transfers launched through the System: failover
	// off dead rails, credit rebalancing under degradation, and probed
	// failback. Left disabled by default — single-path recovery alone
	// reproduces the paper's baseline; experiments opt in explicitly.
	Rails railmgr.Policy
}

const (
	// luns is the logical unit count per back end, each lunSize bytes.
	luns          = 6
	lunSize int64 = 50 * units.GB
)

// The recovery ladder: RFTP stream recovery that detects a loss within
// 250 ms and retries with 50 ms..1 s backoff.
const (
	ackTimeout       sim.Duration = 250 * sim.Millisecond
	retryBackoff     sim.Duration = 50 * sim.Millisecond
	retryBackoffMax  sim.Duration = sim.Second
	maxStreamRetries              = 16
)

// ApplyRFTP fills the recovery ladder into p when Recovery is on and the
// caller has not set its own AckTimeout, and copies Rails in when they are
// enabled and p has none. It returns the adjusted params.
func (o Options) ApplyRFTP(p rftp.Params) rftp.Params {
	if !o.Recovery || p.AckTimeout > 0 {
		return p
	}
	p.AckTimeout = ackTimeout
	p.RetryBackoff = retryBackoff
	p.RetryBackoffMax = retryBackoffMax
	p.MaxStreamRetries = maxStreamRetries
	if o.Rails.Enabled && !p.Rails.Enabled {
		p.Rails = o.Rails
	}
	return p
}

// DefaultOptions mirrors the paper's tuned setup.
func DefaultOptions() Options {
	return Options{
		Policy:      numa.PolicyBind,
		DatasetSize: 140 * units.GB,
	}
}

// Side is one half of the end-to-end path: a front-end host plus its SAN.
type Side struct {
	Front *host.Host
	Store *host.Host
	// Target is the iSER target daemon on the storage host.
	Target *iscsi.Target
	// Session is the front end's iSCSI session.
	Session *iscsi.Session
	// FS is the XFS-like filesystem over the exported LUNs.
	FS *fsim.FS
	// Dataset and Output are the pre-created files used by transfers.
	Dataset *fsim.File
	Output  *fsim.File
}

// System is the full Figure 5 deployment.
type System struct {
	Opt Options
	TB  *testbed.LAN
	// A is the sender side, B the receiver side (forward direction).
	A, B *Side
	// Placer is the adaptive placement engine, present only under
	// numa.PolicyAuto: iSER target worker pools, SAN initiator threads and
	// every RFTP stream endpoint launched through the System register with
	// it, so thread pins and buffer homes converge at runtime instead of
	// being fixed at assembly.
	Placer *placer.Engine
}

// Direction selects which front end sends.
type Direction int

const (
	// Forward transfers A→B (sender→receiver).
	Forward Direction = iota
	// Reverse transfers B→A.
	Reverse
)

// NewSystem builds the system.
func NewSystem(opt Options) (*System, error) {
	if opt.DatasetSize <= 0 {
		return nil, fmt.Errorf("core: DatasetSize must be positive")
	}
	tb := testbed.NewLAN()
	sys := &System{Opt: opt, TB: tb}
	if opt.Policy == numa.PolicyAuto {
		sys.Placer = placer.New(tb.Sender.Sim)
	}

	var err error
	sys.A, err = buildSide(opt, tb, sys.Placer, tb.Sender, tb.SrcStore, tb.SrcSAN)
	if err != nil {
		return nil, err
	}
	sys.B, err = buildSide(opt, tb, sys.Placer, tb.Receiver, tb.DstStore, tb.DstSAN)
	if err != nil {
		return nil, err
	}
	return sys, nil
}

func buildSide(opt Options, tb *testbed.LAN, pl *placer.Engine, front, store *host.Host, san []*fabric.Link) (*Side, error) {
	tgt := iscsi.NewTarget(store.Name, store, iscsi.DefaultTargetConfig(opt.Policy))
	for i := 0; i < luns; i++ {
		var dev blockdev.Device
		if opt.DeviceFactory != nil {
			dev = opt.DeviceFactory(store, i, opt.Policy)
		} else {
			var homes []*numa.Node
			if opt.Policy == numa.PolicyBind {
				homes = []*numa.Node{store.M.Node(i % len(store.M.Nodes))}
			} else {
				homes = store.M.Nodes
			}
			dev = blockdev.NewRamdisk(store.M,
				fmt.Sprintf("%s-lun%d", store.Name, i), lunSize, homes...)
		}
		tgt.AddLUN(i, dev)
	}
	initProc := front.NewProcess("open-iscsi", opt.Policy, nil)
	portals := make([]iser.Portal, len(san))
	for i, l := range san {
		portals[i] = iser.PortalFor(l, store)
	}
	mover := iser.NewMover(portals, initProc.NewThread(), tgt, iser.DefaultParams())
	if pl != nil {
		// Each LUN's worker pool (threads + RDMA bounce buffers) is one
		// placement unit — the daemon the paper pins per node with numactl;
		// the initiator thread is another. SAN command flows report through
		// the mover so the engine can score and migrate them.
		for i := 0; i < luns; i++ {
			ws := tgt.Workers(i)
			threads := make([]*host.Thread, len(ws))
			bufs := make([]*numa.Buffer, len(ws))
			for j, w := range ws {
				threads[j] = w.Thread
				bufs[j] = w.Bounce
			}
			pl.AddEntity(fmt.Sprintf("%s-lun%d", store.Name, i),
				store.M, threads, bufs, float64(len(ws))*4*float64(units.MB))
		}
		pl.AddEntity(fmt.Sprintf("%s-initiator", front.Name),
			front.M, []*host.Thread{mover.InitThread}, nil, 0)
		mover.Placer = pl
	}
	sess := iscsi.NewSession(tgt, mover)
	fs, err := fsim.Mount(sess, front, fsim.DefaultOptions())
	if err != nil {
		return nil, err
	}
	ds, err := fs.Create("dataset", opt.DatasetSize)
	if err != nil {
		return nil, fmt.Errorf("core: dataset: %w", err)
	}
	out, err := fs.Create("output", opt.DatasetSize)
	if err != nil {
		return nil, fmt.Errorf("core: output: %w", err)
	}
	return &Side{
		Front: front, Store: store,
		Target: tgt, Session: sess, FS: fs,
		Dataset: ds, Output: out,
	}, nil
}

// Engine exposes the simulation engine.
func (s *System) Engine() *sim.Engine { return s.TB.Eng }

// ends resolves the direction into (sender side, receiver side).
func (s *System) ends(dir Direction) (*Side, *Side) {
	if dir == Reverse {
		return s.B, s.A
	}
	return s.A, s.B
}

// StartRFTP launches an RFTP transfer of size bytes (math.Inf(1) for
// open-ended) in the given direction. RFTP reads and writes with direct
// I/O on dedicated I/O threads.
func (s *System) StartRFTP(dir Direction, cfg rftp.Config, p rftp.Params,
	size float64, onDone func(now sim.Time)) (*rftp.Transfer, error) {
	snd, rcv := s.ends(dir)
	return s.StartRFTPOn(dir, cfg, p, snd.Dataset, rcv.Output, size, onDone)
}

// StartRFTPOn launches an RFTP transfer between explicit files (created
// with CreateJobFiles, or any files on the matching sides). Any number of
// transfers may run concurrently on a live System — they contend for the
// shared fabric, SAN and CPU resources, and each keeps its own progress;
// CPU is accounted per host and category (host.Host.HostCPUReport).
func (s *System) StartRFTPOn(dir Direction, cfg rftp.Config, p rftp.Params,
	srcFile, dstFile *fsim.File, size float64, onDone func(now sim.Time)) (*rftp.Transfer, error) {
	if srcFile == nil || dstFile == nil {
		return nil, fmt.Errorf("core: transfer needs source and destination files")
	}
	snd, _ := s.ends(dir)
	if s.Placer != nil && cfg.Placer == nil {
		cfg.Placer = s.Placer
	}
	src := pipe.FileReader{File: srcFile, Direct: true}
	dst := pipe.FileWriter{File: dstFile, Direct: true}
	return rftp.Start(s.TB.FrontLinks, snd.Front, cfg, s.Opt.ApplyRFTP(p), src, dst, size, onDone)
}

// StartRFTPBatchOn launches a coalesced object window between explicit
// files: many small objects share one session and its stream credit
// windows, delimited in-band instead of paying per-object control round
// trips. onObject observes exactly-once per-object completions; zero-size
// objects are legal and complete like any other. The window is an
// rftp.Transfer like any other session, so recovery, rails, hedging and
// checksums apply to it.
func (s *System) StartRFTPBatchOn(dir Direction, cfg rftp.Config, p rftp.Params,
	srcFile, dstFile *fsim.File, objects []rftp.ObjectSpec,
	onObject func(i int, now sim.Time), onDone func(now sim.Time)) (*rftp.Transfer, error) {
	if srcFile == nil || dstFile == nil {
		return nil, fmt.Errorf("core: transfer needs source and destination files")
	}
	snd, _ := s.ends(dir)
	if s.Placer != nil && cfg.Placer == nil {
		cfg.Placer = s.Placer
	}
	src := pipe.FileReader{File: srcFile, Direct: true}
	dst := pipe.FileWriter{File: dstFile, Direct: true}
	return rftp.StartBatch(s.TB.FrontLinks, snd.Front, cfg, s.Opt.ApplyRFTP(p), src, dst, objects, onObject, onDone)
}

// StartGridFTP launches a GridFTP transfer in the given direction.
// GridFTP reads and writes buffered (no direct I/O) on its single
// per-stream threads.
func (s *System) StartGridFTP(dir Direction, cfg gridftp.Config,
	size float64, onDone func(now sim.Time)) (*gridftp.Transfer, error) {
	snd, rcv := s.ends(dir)
	return s.StartGridFTPOn(dir, cfg, snd.Dataset, rcv.Output, size, onDone)
}

// StartGridFTPOn launches a GridFTP transfer between explicit files, the
// buffered-I/O counterpart of StartRFTPOn.
func (s *System) StartGridFTPOn(dir Direction, cfg gridftp.Config,
	srcFile, dstFile *fsim.File, size float64, onDone func(now sim.Time)) (*gridftp.Transfer, error) {
	if srcFile == nil || dstFile == nil {
		return nil, fmt.Errorf("core: transfer needs source and destination files")
	}
	snd, _ := s.ends(dir)
	src := pipe.FileReader{File: srcFile, Direct: false}
	dst := pipe.FileWriter{File: dstFile, Direct: false}
	return gridftp.Start(s.TB.FrontLinks, snd.Front, cfg, src, dst, size, onDone)
}

// CreateJobFiles allocates a per-job (source, destination) file pair for a
// transfer in the given direction: a dataset file on the sender's SAN and
// an output file on the receiver's, both striped like any other file. It is
// the multi-tenant counterpart of the pre-created Dataset/Output pair —
// concurrent jobs get disjoint files so filesystem capacity is a real,
// per-side constraint. Remove the pair with RemoveJobFiles when the job is
// done.
func (s *System) CreateJobFiles(dir Direction, name string, size int64) (src, dst *fsim.File, err error) {
	snd, rcv := s.ends(dir)
	src, err = snd.FS.Create("job/"+name+"/in", size)
	if err != nil {
		return nil, nil, fmt.Errorf("core: job source: %w", err)
	}
	dst, err = rcv.FS.Create("job/"+name+"/out", size)
	if err != nil {
		snd.FS.Remove("job/" + name + "/in")
		return nil, nil, fmt.Errorf("core: job destination: %w", err)
	}
	return src, dst, nil
}

// RemoveJobFiles frees the file pair created by CreateJobFiles.
func (s *System) RemoveJobFiles(dir Direction, name string) error {
	snd, rcv := s.ends(dir)
	if err := snd.FS.Remove("job/" + name + "/in"); err != nil {
		return err
	}
	return rcv.FS.Remove("job/" + name + "/out")
}

// FrontCapacity returns the aggregate payload capacity of the front-end
// fabric in one direction (line rate × framing efficiency, summed over the
// links), in bytes/second.
func (s *System) FrontCapacity() float64 {
	total := 0.0
	for _, l := range s.TB.FrontLinks {
		total += l.Cfg.Rate * l.Cfg.Efficiency()
	}
	return total
}

// MeasureCeiling measures the narrowest section of the end-to-end path the
// way the paper does with fio (§4.3): a streaming write (or read) against
// one side's SAN, bypassing the front-end fabric. It returns bytes/second.
func (s *System) MeasureCeiling(side *Side, op iscsi.Op, duration sim.Duration) (float64, error) {
	proc := side.Front.NewProcess("fio-ceiling", s.Opt.Policy, nil)
	fl := side.Front.Sim.NewFlow("ceiling", math.Inf(1))
	file := side.Dataset
	if op == iscsi.OpWrite {
		file = side.Output
	}
	var buf *numa.Buffer
	th := proc.NewThread()
	if node := th.Node(); node != nil {
		buf = side.Front.M.NewBuffer("ceiling", node)
	} else {
		buf = side.Front.M.InterleavedBuffer("ceiling")
	}
	err := file.AttachStream(fl, op, fsim.IOOptions{
		Thread: th, Buffer: buf, Direct: true,
	}, 1)
	if err != nil {
		return 0, err
	}
	tr := &fluid.Transfer{Flow: fl, Remaining: math.Inf(1)}
	side.Front.Sim.Start(tr)
	s.TB.Eng.RunFor(duration)
	side.Front.Sim.Sync()
	rate := tr.Transferred() / float64(duration)
	side.Front.Sim.Cancel(tr)
	return rate, nil
}
