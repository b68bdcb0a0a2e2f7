// Package pipe defines the data source/sink stages of an end-to-end
// transfer pipeline (Figure 3 of the paper: data loading → transmission →
// data offloading) and the standard endpoints used by the evaluation:
// /dev/zero and /dev/null for memory-to-memory runs, and striped SAN files
// for true end-to-end runs.
//
// A Stage attaches the cost of moving each payload byte between the
// transfer protocol's staging buffer and the stage's backing store onto
// the stream's fluid flow. Which thread pays is the caller's choice — this
// is exactly the architectural difference between RFTP (dedicated,
// pipelined I/O threads) and GridFTP (one thread doing everything).
package pipe

import (
	"e2edt/internal/fluid"
	"e2edt/internal/fsim"
	"e2edt/internal/host"
	"e2edt/internal/iscsi"
	"e2edt/internal/numa"
)

// Stage is one end of a transfer pipeline.
type Stage interface {
	// Attach charges the stage's per-byte costs onto f. th is the thread
	// performing the load/offload, buf the protocol's staging buffer,
	// share the stage bytes per flow byte.
	Attach(f *fluid.Flow, th *host.Thread, buf *numa.Buffer, share float64) error
}

// Null discards data (/dev/null): offloading costs are negligible (<1%
// CPU in the paper's Figure 4).
type Null struct{}

// Attach implements Stage.
func (Null) Attach(*fluid.Flow, *host.Thread, *numa.Buffer, float64) error { return nil }

// Zero sources data from /dev/zero: the kernel fills the staging buffer
// with zeros — a CPU memset plus a memory write per byte (≈70% of one core
// at 39 Gbps in Figure 4).
type Zero struct {
	// CyclesPerByte is the zero-fill cost; 0 selects the default 0.32.
	CyclesPerByte float64
}

// DefaultZeroCycles reproduces the ≈70%-CPU data-loading cost at 39 Gbps
// on 2.2 GHz cores.
const DefaultZeroCycles = 0.32

// Attach implements Stage.
func (z Zero) Attach(f *fluid.Flow, th *host.Thread, buf *numa.Buffer, share float64) error {
	cy := z.CyclesPerByte
	if cy == 0 {
		cy = DefaultZeroCycles
	}
	th.ChargeMemory(f, buf, share, true)
	th.ChargeCPU(f, share*cy*th.MemoryPenalty(buf, true), host.CatLoad)
	return nil
}

// FileReader sources data from a SAN file.
type FileReader struct {
	File *fsim.File
	// Direct selects O_DIRECT (RFTP); false pays the page cache (GridFTP).
	Direct bool
}

// Attach implements Stage.
func (r FileReader) Attach(f *fluid.Flow, th *host.Thread, buf *numa.Buffer, share float64) error {
	return r.File.AttachStream(f, iscsi.OpRead, fsim.IOOptions{
		Thread: th, Buffer: buf, Direct: r.Direct,
	}, share)
}

// FileWriter sinks data into a SAN file.
type FileWriter struct {
	File   *fsim.File
	Direct bool
}

// Attach implements Stage.
func (w FileWriter) Attach(f *fluid.Flow, th *host.Thread, buf *numa.Buffer, share float64) error {
	return w.File.AttachStream(f, iscsi.OpWrite, fsim.IOOptions{
		Thread: th, Buffer: buf, Direct: w.Direct,
	}, share)
}
