// Package iser implements the iSCSI Extensions for RDMA datamover
// (RFC 5046) over the simulated fabric: the target answers SCSI READ
// commands with RDMA WRITE and SCSI WRITE commands with RDMA READ, exactly
// the direction mapping the paper describes in §3.1.
//
// Each data movement is one fluid flow combining, on the target side, the
// worker thread's copy between the LUN's backing store and its
// RDMA-registered bounce buffer (where NUMA placement and cache coherency
// bite) with, on the wire, NIC DMA at both ends. A multi-portal mover load
// balances commands across several links and — under NUMA-aware tuning —
// routes each command through the NIC local to the serving worker's node.
package iser

import (
	"fmt"
	"math"

	"e2edt/internal/fabric"
	"e2edt/internal/fluid"
	"e2edt/internal/host"
	"e2edt/internal/iscsi"
	"e2edt/internal/numa"
	"e2edt/internal/placer"
	"e2edt/internal/sim"
)

// Params calibrates datamover costs.
type Params struct {
	// CopyCyclesPerByte is the target worker's memcpy cost between the
	// backing store and the bounce buffer.
	CopyCyclesPerByte float64
	// MediaCyclesPerByte is the worker's cost to drive a media (non-RAM)
	// device via its driver.
	MediaCyclesPerByte float64
	// InitCyclesPerByte is the initiator's kernel handling cost.
	InitCyclesPerByte float64
	// BounceCacheFactor discounts DRAM traffic for the small, hot bounce
	// buffers (served from the last-level cache via DDIO); 1 disables the
	// discount.
	BounceCacheFactor float64
	// ReadPenalty (≥1) multiplies wire usage for RDMA READ: the paper
	// measures RDMA WRITE ≈7.5% faster than RDMA READ (read requests add a
	// round trip per message and responder-side scheduling).
	ReadPenalty float64
	// OpLatency is the fixed NIC/driver processing latency per operation.
	OpLatency sim.Duration
}

// DefaultParams returns costs consistent with the paper's target-dominated
// iSER profile.
func DefaultParams() Params {
	return Params{
		CopyCyclesPerByte:  0.45,
		MediaCyclesPerByte: 0.08,
		InitCyclesPerByte:  0.06,
		BounceCacheFactor:  0.25,
		ReadPenalty:        1.075,
		OpLatency:          5 * sim.Microsecond,
	}
}

// Portal is one RDMA-capable path between initiator and target.
type Portal struct {
	Link    *fabric.Link
	InitNIC *host.Device
	TgtNIC  *host.Device
}

// PortalFor orients a link's endpoints given the target host.
func PortalFor(l *fabric.Link, targetHost *host.Host) Portal {
	switch targetHost {
	case l.B.Host:
		return Portal{Link: l, InitNIC: l.A, TgtNIC: l.B}
	case l.A.Host:
		return Portal{Link: l, InitNIC: l.B, TgtNIC: l.A}
	default:
		panic(fmt.Sprintf("iser: target host %s not on link %s", targetHost.Name, l.Cfg.Name))
	}
}

// Mover is the RDMA datamover for one initiator-target session.
type Mover struct {
	Portals []Portal
	// InitThread handles initiator-side completions.
	InitThread *host.Thread
	// Target supplies the contention model for worker copies.
	Target *iscsi.Target
	P      Params

	// Placer, when non-nil, is the adaptive placement engine: every Move
	// flow is tracked so the engine can rebuild its cost coefficients as
	// workers are pinned and buffers re-homed.
	Placer *placer.Engine

	sim  *fluid.Sim
	eng  *sim.Engine
	next int
	// Moved counts payload bytes transferred (both directions).
	Moved float64
}

// NewMover builds a datamover over the given portals.
func NewMover(portals []Portal, initThread *host.Thread, target *iscsi.Target, p Params) *Mover {
	if len(portals) == 0 {
		panic("iser: mover needs at least one portal")
	}
	if initThread == nil || target == nil {
		panic("iser: mover needs an initiator thread and a target")
	}
	if p.ReadPenalty < 1 {
		panic("iser: ReadPenalty must be ≥ 1")
	}
	return &Mover{
		Portals:    portals,
		InitThread: initThread,
		Target:     target,
		P:          p,
		sim:        portals[0].Link.Sim(),
		eng:        portals[0].Link.Engine(),
	}
}

var _ iscsi.Mover = (*Mover)(nil)

// bounceScale returns the effective DRAM factor for bounce buffers.
func (m *Mover) bounceScale() float64 {
	if m.P.BounceCacheFactor <= 0 {
		return 1
	}
	return m.P.BounceCacheFactor
}

// workerCopy charges the worker thread's memcpy between the backing store
// and the bounce buffer: the store side pays full DRAM traffic, the bounce
// side is cache-discounted, and the CPU cost carries the NUMA penalties of
// both operands.
//
// Coherency-storm penalties apply only to the store side: tmpfs pages are
// shared across target processes, so a remote store write invalidates
// cache lines machine-wide (the paper's 3x write-CPU observation), whereas
// the bounce buffer is thread-private — remote placement costs latency
// (read-class penalty) but not invalidation storms.
func (m *Mover) workerCopy(f *fluid.Flow, w *iscsi.Worker, store *numa.Buffer, toBounce bool, share, cycles float64) {
	bouncePen := w.Thread.MemoryPenalty(w.Bounce, false)
	if toBounce {
		w.Thread.ChargeMemory(f, store, share, false)
		w.Thread.ChargeMemoryScaled(f, w.Bounce, share, true, m.bounceScale())
		pen := (w.Thread.MemoryPenalty(store, false) + bouncePen) / 2
		w.Thread.ChargeCPU(f, share*cycles*pen, host.CatIO)
	} else {
		w.Thread.ChargeMemoryScaled(f, w.Bounce, share, false, m.bounceScale())
		w.Thread.ChargeMemory(f, store, share, true)
		pen := (bouncePen + w.Thread.MemoryPenalty(store, true)) / 2
		w.Thread.ChargeCPU(f, share*cycles*pen, host.CatIO)
	}
}

// chargeWorker attaches one worker's part of the iSER data path onto f,
// share bytes of LUN traffic per flow-byte routed through portal p. A read
// charges, in order, the worker copy (or media read) from the backing
// store into the bounce buffer, the target NIC's RDMA WRITE out of the
// bounce buffer, the wire, and the initiator NIC's DMA into initBuf; a
// write charges the same steps in reverse, with the RDMA READ's penalty on
// the wire and a coherency-sensitive copy into the store. length is the
// block size the device's AttachIO sees (0 for a continuous stream).
func (m *Mover) chargeWorker(f *fluid.Flow, op iscsi.Op, lun *iscsi.LUN, w *iscsi.Worker, p Portal,
	initBuf *numa.Buffer, length int64, share, contention float64) {
	mem := lun.Dev.MemoryBuffer()
	switch op {
	case iscsi.OpRead:
		if mem != nil {
			m.workerCopy(f, w, mem, true, share, m.P.CopyCyclesPerByte*contention)
		} else {
			lun.Dev.AttachIO(f, false, length, share)
			w.Thread.ChargeMemoryScaled(f, w.Bounce, share, true, m.bounceScale())
			w.Thread.ChargeCPU(f, share*m.P.MediaCyclesPerByte*contention, host.CatIO)
		}
		p.TgtNIC.ChargeDMAScaled(f, w.Bounce, share, false, m.bounceScale())
		p.Link.ChargeWire(f, p.TgtNIC, share)
		p.InitNIC.ChargeDMA(f, initBuf, share, true)
	case iscsi.OpWrite:
		p.InitNIC.ChargeDMA(f, initBuf, share, false)
		p.Link.ChargeWire(f, p.InitNIC, share*m.P.ReadPenalty)
		p.TgtNIC.ChargeDMAScaled(f, w.Bounce, share, true, m.bounceScale())
		if mem != nil {
			m.workerCopy(f, w, mem, false, share, m.P.CopyCyclesPerByte*contention)
		} else {
			lun.Dev.AttachIO(f, true, length, share)
			w.Thread.ChargeMemoryScaled(f, w.Bounce, share, false, m.bounceScale())
			w.Thread.ChargeCPU(f, share*m.P.MediaCyclesPerByte*contention, host.CatIO)
		}
	default:
		panic(fmt.Sprintf("iser: unknown op %v", op))
	}
}

// AttachPath charges the full iSER data path for a continuous stream onto
// flow f, with `share` bytes of LUN traffic per flow-byte. The steady-state load is spread across the LUN's
// worker pool (each worker's bounce buffer and thread takes 1/n), and each
// worker routes through its NUMA-affine portal as in Move.
func (m *Mover) AttachPath(f *fluid.Flow, op iscsi.Op, lunID int, initBuf *numa.Buffer, share float64) {
	if share <= 0 {
		return
	}
	lun := m.Target.LUN(lunID)
	workers := m.Target.Workers(lunID)
	if lun == nil || len(workers) == 0 {
		panic(fmt.Sprintf("iser: AttachPath on unknown LUN %d", lunID))
	}
	contention := m.Target.ContentionMultiplier()
	per := share / float64(len(workers))
	for i, w := range workers {
		// Portal choice is a pure function of (worker placement, index):
		// NUMA-affine when pinned, round-robin by worker index otherwise.
		// No shared counter — the adaptive placer re-runs this body when
		// rebuilding a flow's coefficients, and a stateful pick would make
		// replays diverge.
		m.chargeWorker(f, op, lun, w, m.route(w, i), initBuf, 0, per, contention)
	}
	m.InitThread.ChargeCPU(f, share*m.P.InitCyclesPerByte, host.CatSys)
}

// SendPDU implements iscsi.Mover using the first portal's latency. Control
// PDUs are small SEND messages and are not charged against bulk bandwidth.
// A PDU submitted while the portal link is dark is dropped by the link.
func (m *Mover) SendPDU(size float64, toTarget bool, fn func(now sim.Time)) {
	l := m.Portals[0].Link
	m.eng.Schedule(m.P.OpLatency, func() { l.Send(size, fn) })
}

// pick selects the portal for a command: a NUMA-affine portal when the
// worker is bound and a local NIC exists (the paper's per-node link
// routing), round-robin otherwise.
func (m *Mover) pick(w *iscsi.Worker) Portal {
	if p, ok := m.affine(w); ok {
		return p
	}
	p := m.Portals[m.next%len(m.Portals)]
	m.next++
	return p
}

// affine returns the portal whose target NIC shares the worker's node.
func (m *Mover) affine(w *iscsi.Worker) (Portal, bool) {
	if node := w.Thread.Node(); node != nil {
		for _, p := range m.Portals {
			if p.TgtNIC.Node == node {
				return p, true
			}
		}
	}
	return Portal{}, false
}

// route is pick without the shared round-robin counter: NUMA-affine when
// possible, otherwise indexed by i. Safe to call from placer rebuilds.
func (m *Mover) route(w *iscsi.Worker, i int) Portal {
	if p, ok := m.affine(w); ok {
		return p
	}
	return m.Portals[i%len(m.Portals)]
}

// Move implements iscsi.Mover: it builds one fluid flow carrying the
// command's full cost structure and completes after the last byte lands
// plus one propagation delay.
func (m *Mover) Move(cmd *iscsi.Command, lun *iscsi.LUN, w *iscsi.Worker, onDone func(now sim.Time)) {
	p := m.pick(w)
	tag := cmd.Tag
	if tag == "" {
		tag = "iser"
	}
	f := m.sim.NewFlow(fmt.Sprintf("iser/%s/lun%d/%s", cmd.Op, lun.ID, tag), math.Inf(1))
	m.chargeMove(f, cmd, lun, w, p)
	if m.Placer != nil {
		// Rebuilds re-derive the charges from current placement; the
		// portal upgrades to the worker's NUMA-affine one once the placer
		// pins it, and otherwise stays the captured original (never the
		// shared round-robin counter, which would diverge replays).
		m.Placer.Track(f, func(f *fluid.Flow) {
			route := p
			if aff, ok := m.affine(w); ok {
				route = aff
			}
			m.chargeMove(f, cmd, lun, w, route)
		})
	}

	delay := p.Link.OneWayDelay() + m.P.OpLatency
	m.eng.Schedule(m.P.OpLatency, func() {
		m.sim.Start(&fluid.Transfer{
			Flow:      f,
			Remaining: float64(cmd.Length),
			OnComplete: func(sim.Time) {
				if m.Placer != nil {
					m.Placer.Untrack(f)
				}
				m.Moved += float64(cmd.Length)
				m.eng.Schedule(delay, func() { onDone(m.eng.Now()) })
			},
		})
	})
}

// chargeMove attaches one command's full iSER cost structure to f: the
// worker copy (or media I/O) on the target, RDMA DMA at both NICs, the
// wire, initiator kernel handling, and any caller-attached charges. It is
// a pure function of current placement state, re-runnable by the placer.
func (m *Mover) chargeMove(f *fluid.Flow, cmd *iscsi.Command, lun *iscsi.LUN, w *iscsi.Worker, p Portal) {
	m.chargeWorker(f, cmd.Op, lun, w, p, cmd.Buffer, cmd.Length, 1, m.Target.ContentionMultiplier())
	// Initiator-side kernel handling, plus any caller-attached charges
	// (filesystem CPU, page-cache copies).
	m.InitThread.ChargeCPU(f, m.P.InitCyclesPerByte, host.CatSys)
	if cmd.Charge != nil {
		cmd.Charge(f)
	}
}
