// Package iscsi implements the storage-area-network control plane used by
// the paper's back end: logical units, SCSI read/write commands, a
// multi-threaded target with per-LUN worker pools, and initiator sessions.
//
// The data path is delegated to a Mover (the iser package provides the
// RDMA datamover), following the iSCSI/iSER split in RFC 5046: the target
// receives a command PDU, a worker thread executes the block I/O against
// the LUN's device, the mover transfers data with RDMA WRITE (for SCSI
// reads) or RDMA READ (for SCSI writes), and a response PDU completes the
// exchange.
//
// NUMA behaviour mirrors the paper's §3.1: under PolicyBind the target runs
// one process per NUMA node and each LUN is served by the process local to
// its backing memory; under PolicyDefault a single unpinned process serves
// all LUNs, so worker threads copy across sockets and pay coherency
// penalties on writes.
package iscsi

import (
	"errors"
	"fmt"
	"sort"

	"e2edt/internal/blockdev"
	"e2edt/internal/fluid"
	"e2edt/internal/host"
	"e2edt/internal/numa"
	"e2edt/internal/sim"
)

// Op is a SCSI data operation.
type Op int

const (
	// OpRead transfers data target→initiator (SCSI READ).
	OpRead Op = iota
	// OpWrite transfers data initiator→target (SCSI WRITE).
	OpWrite
)

// String implements fmt.Stringer.
func (o Op) String() string {
	if o == OpRead {
		return "read"
	}
	return "write"
}

// Errors returned through Command.OnComplete.
var (
	ErrNoLUN      = errors.New("iscsi: no such LUN")
	ErrOutOfRange = errors.New("iscsi: I/O beyond end of device")
	ErrZeroLength = errors.New("iscsi: zero-length I/O")
	ErrNilBuffer  = errors.New("iscsi: command without initiator buffer")
)

// Command is one SCSI I/O request.
type Command struct {
	Op     Op
	LUN    int
	Offset int64
	Length int64
	// Buffer is the initiator-side data buffer.
	Buffer *numa.Buffer
	// Tag names the command's data flow (the mover's flow name ends in
	// it, so trace digests hash it); empty means the mover's default.
	Tag string
	// Charge, when non-nil, attaches additional initiator-side costs to
	// the command's data flow (page-cache copies, filesystem CPU, ...).
	Charge func(f *fluid.Flow)
	// OnComplete fires at the initiator when the response PDU arrives.
	OnComplete func(now sim.Time, err error)

	// Issued and Done record timing for latency statistics.
	Issued sim.Time
	Done   sim.Time

	// completed guards against a second completion of one command.
	completed bool
}

// LUN is a logical unit backed by a block device.
type LUN struct {
	ID  int
	Dev blockdev.Device
}

// Worker is one target I/O thread with its RDMA-registered bounce buffer.
type Worker struct {
	Thread *host.Thread
	Bounce *numa.Buffer
	busy   bool
}

// Mover is the data-plane transport (implemented by the iser package).
type Mover interface {
	// SendPDU delivers a control PDU of the given size to the other side
	// after transport latency; fn fires on delivery. A PDU the transport
	// drops (dark link) is lost and fn never fires.
	SendPDU(size float64, toTarget bool, fn func(now sim.Time))
	// Move transfers cmd's data using worker w's bounce buffer and
	// thread. It must invoke onDone when the last byte is placed.
	Move(cmd *Command, lun *LUN, w *Worker, onDone func(now sim.Time))
	// AttachPath charges the full data-path cost of share bytes of
	// payload per flow-byte to an externally managed fluid flow, instead
	// of per-command events. Long-running pipelines (RFTP/GridFTP over
	// the SAN) stream this way to avoid millions of per-block events
	// while charging identical resources.
	AttachPath(f *fluid.Flow, op Op, lunID int, initBuf *numa.Buffer, share float64)
}

// TargetConfig tunes the target's threading and NUMA policy.
type TargetConfig struct {
	// Policy is the process placement policy (the paper's experiment
	// variable in Figures 7–8).
	Policy numa.Policy
	// ThreadsPerLUN is the worker-pool size per logical unit; the paper
	// finds 4 optimal.
	ThreadsPerLUN int
	// ContentionFactor adds CPU overhead when workers oversubscribe
	// cores: effective cycles ×(1 + f×max(0, threads/cores − 1)).
	ContentionFactor float64
	// CmdPDUBytes is the size of command/response PDUs.
	CmdPDUBytes float64
}

// DefaultTargetConfig returns the paper's tuned configuration.
func DefaultTargetConfig(policy numa.Policy) TargetConfig {
	return TargetConfig{
		Policy:           policy,
		ThreadsPerLUN:    4,
		ContentionFactor: 0.35,
		CmdPDUBytes:      128,
	}
}

// lunState is the per-LUN queue and worker pool.
type lunState struct {
	lun     *LUN
	queue   []*Command
	workers []*Worker
	proc    *host.Process
}

// Target is the storage server daemon.
type Target struct {
	Name string
	Host *host.Host
	Cfg  TargetConfig

	luns map[int]*lunState
	eng  *sim.Engine
	// Served counts completed commands.
	Served int64
}

// NewTarget creates a target daemon on h.
func NewTarget(name string, h *host.Host, cfg TargetConfig) *Target {
	if cfg.ThreadsPerLUN <= 0 {
		panic("iscsi: ThreadsPerLUN must be positive")
	}
	return &Target{
		Name: name, Host: h, Cfg: cfg,
		luns: make(map[int]*lunState),
		eng:  h.Sim.Engine,
	}
}

// AddLUN exports dev as LUN id. Under PolicyBind, the serving process is
// bound to the node holding the device's memory (local I/O, the paper's
// per-node tgtd design); media devices bind round-robin.
func (t *Target) AddLUN(id int, dev blockdev.Device) *LUN {
	if _, dup := t.luns[id]; dup {
		panic(fmt.Sprintf("iscsi: duplicate LUN %d", id))
	}
	lun := &LUN{ID: id, Dev: dev}
	var node *numa.Node
	if t.Cfg.Policy == numa.PolicyBind {
		if buf := dev.MemoryBuffer(); buf != nil && len(buf.Homes) == 1 {
			node = buf.Homes[0]
		}
	}
	proc := t.Host.NewProcess(fmt.Sprintf("%s-lun%d", t.Name, id), t.Cfg.Policy, node)
	st := &lunState{lun: lun, proc: proc}
	for i := 0; i < t.Cfg.ThreadsPerLUN; i++ {
		th := proc.NewThread()
		st.workers = append(st.workers, &Worker{
			Thread: th,
			Bounce: bounceBuffer(th, fmt.Sprintf("%s-lun%d-bounce%d", t.Name, id, i)),
		})
	}
	t.luns[id] = st
	return lun
}

func bounceBuffer(th *host.Thread, name string) *numa.Buffer {
	m := th.Proc.Host.M
	if n := th.Node(); n != nil {
		return m.NewBuffer(name, n)
	}
	return m.InterleavedBuffer(name)
}

// LUNs returns the exported LUNs sorted by id. The order is part of the
// contract: callers register flows and placement entities in this order,
// and replay determinism depends on it.
func (t *Target) LUNs() []*LUN {
	out := make([]*LUN, 0, len(t.luns))
	for _, st := range t.luns {
		out = append(out, st.lun)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// LUN returns the logical unit with the given id, or nil.
func (t *Target) LUN(id int) *LUN {
	if st, ok := t.luns[id]; ok {
		return st.lun
	}
	return nil
}

// Workers returns the worker pool serving the given LUN (nil if absent).
// Exposed for streaming-mode movers that spread steady-state load across
// the pool.
func (t *Target) Workers(id int) []*Worker {
	if st, ok := t.luns[id]; ok {
		return st.workers
	}
	return nil
}

// Oversubscription returns the worker-threads-per-available-core ratio used
// by the contention model.
func (t *Target) Oversubscription() float64 {
	threads := 0
	for _, st := range t.luns {
		threads += len(st.workers)
	}
	cores := t.Host.M.TotalCores()
	if t.Cfg.Policy == numa.PolicyBind {
		// Bound processes only use their node's cores, but LUNs are
		// spread across nodes, so the full machine is still available.
		cores = t.Host.M.TotalCores()
	}
	if cores == 0 {
		return 0
	}
	return float64(threads) / float64(cores)
}

// ContentionMultiplier is the CPU inflation applied to worker copies.
func (t *Target) ContentionMultiplier() float64 {
	over := t.Oversubscription()
	if over <= 1 {
		return 1
	}
	return 1 + t.Cfg.ContentionFactor*(over-1)
}

// Session is an initiator's connection to a target through a mover. The
// mover carries all initiator-side cost context (the open-iscsi initiator
// is thin; most protocol cost sits on the target).
type Session struct {
	Target *Target
	Mover  Mover

	// Inflight tracks submitted-but-incomplete commands.
	Inflight int
}

// NewSession opens a session.
func NewSession(t *Target, m Mover) *Session {
	if m == nil {
		panic("iscsi: session needs a mover")
	}
	return &Session{Target: t, Mover: m}
}

// Submit validates and issues cmd. Completion (or validation failure) is
// reported through cmd.OnComplete.
func (s *Session) Submit(cmd *Command) {
	eng := s.Target.eng
	cmd.Issued = eng.Now()
	// Every submitted command is in flight until finish() delivers its
	// single completion (success or validation error).
	s.Inflight++
	fail := func(err error) {
		eng.Schedule(0, func() { s.finish(cmd, err) })
	}
	st, ok := s.Target.luns[cmd.LUN]
	if !ok {
		fail(ErrNoLUN)
		return
	}
	switch {
	case cmd.Length <= 0:
		fail(ErrZeroLength)
		return
	case cmd.Buffer == nil:
		fail(ErrNilBuffer)
		return
	case cmd.Offset < 0 || cmd.Offset+cmd.Length > st.lun.Dev.Size():
		fail(ErrOutOfRange)
		return
	}
	eng.Tracef("iscsi", "submit %s lun=%d len=%d", cmd.Op, cmd.LUN, cmd.Length)
	s.Mover.SendPDU(s.Target.Cfg.CmdPDUBytes, true, func(sim.Time) { s.enqueue(st, cmd) })
}

// finish delivers a command's final status exactly once.
func (s *Session) finish(cmd *Command, err error) {
	if cmd.completed {
		return
	}
	cmd.completed = true
	s.Inflight--
	cmd.Done = s.Target.eng.Now()
	if cmd.OnComplete != nil {
		cmd.OnComplete(cmd.Done, err)
	}
}

// enqueue hands the command to the LUN's worker pool.
func (s *Session) enqueue(st *lunState, cmd *Command) {
	for _, w := range st.workers {
		if !w.busy {
			s.run(st, w, cmd)
			return
		}
	}
	st.queue = append(st.queue, cmd)
}

// run executes cmd on worker w: device access latency, data movement,
// response PDU, then next queued command.
func (s *Session) run(st *lunState, w *Worker, cmd *Command) {
	w.busy = true
	eng := s.Target.eng
	eng.Schedule(st.lun.Dev.AccessLatency(), func() {
		s.Mover.Move(cmd, st.lun, w, func(sim.Time) {
			// Response PDU back to the initiator.
			s.Mover.SendPDU(s.Target.Cfg.CmdPDUBytes, false, func(now sim.Time) {
				s.Target.Served++
				eng.Tracef("iscsi", "done %s lun=%d len=%d lat=%.6fs",
					cmd.Op, cmd.LUN, cmd.Length, float64(now-cmd.Issued))
				s.finish(cmd, nil)
			})
			// The worker frees as soon as data movement finishes; the
			// response PDU is asynchronous.
			w.busy = false
			if len(st.queue) > 0 {
				next := st.queue[0]
				st.queue = st.queue[1:]
				s.run(st, w, next)
			}
		})
	})
}
