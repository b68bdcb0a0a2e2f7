// Package stream reimplements the STREAM memory-bandwidth benchmark
// (McCalpin) over the simulated NUMA machine. The paper uses STREAM Triad
// with OpenMP threads to establish the 50 GB/s peak memory bandwidth of its
// two-node hosts (§2.3), from which it derives the ≤200 Gbps ceiling for
// two-copy TCP transfers.
package stream

import (
	"fmt"

	"e2edt/internal/fluid"
	"e2edt/internal/host"
	"e2edt/internal/numa"
	"e2edt/internal/sim"
)

// Kernel selects the STREAM loop.
type Kernel int

const (
	// Copy: c[i] = a[i]            (1 read, 1 write)
	Copy Kernel = iota
	// Scale: b[i] = s*c[i]         (1 read, 1 write)
	Scale
	// Add: c[i] = a[i] + b[i]      (2 reads, 1 write)
	Add
	// Triad: a[i] = b[i] + s*c[i]  (2 reads, 1 write)
	Triad
)

// String implements fmt.Stringer.
func (k Kernel) String() string {
	switch k {
	case Copy:
		return "Copy"
	case Scale:
		return "Scale"
	case Add:
		return "Add"
	case Triad:
		return "Triad"
	default:
		return fmt.Sprintf("Kernel(%d)", int(k))
	}
}

// readShare returns the fraction of the kernel's memory traffic that is
// reads (STREAM counts reads+writes as moved bytes).
func (k Kernel) readShare() float64 {
	switch k {
	case Add, Triad:
		return 2.0 / 3.0
	default:
		return 0.5
	}
}

// Config parameterizes a run.
type Config struct {
	// Threads is the OpenMP-style worker count.
	Threads int
	// Policy places threads and arrays: PolicyBind spreads threads evenly
	// across nodes with node-local arrays (OMP_PROC_BIND=true);
	// PolicyDefault leaves threads unpinned with interleaved arrays.
	Policy numa.Policy
	// Kernel is the STREAM loop to run.
	Kernel Kernel
	// Duration of the measured run.
	Duration sim.Duration
	// ComputeCyclesPerByte is the arithmetic cost (small; STREAM is
	// memory-bound on any modern core).
	ComputeCyclesPerByte float64
}

// DefaultConfig runs Triad with one thread per core, bound.
func DefaultConfig(h *host.Host) Config {
	return Config{
		Threads:              h.M.TotalCores(),
		Policy:               numa.PolicyBind,
		Kernel:               Triad,
		Duration:             5,
		ComputeCyclesPerByte: 0.05,
	}
}

// Result reports the measured bandwidth.
type Result struct {
	Kernel Kernel
	// Bandwidth is total memory traffic in bytes/second (STREAM
	// convention: reads + writes).
	Bandwidth float64
	// PerThread is each worker's traffic rate.
	PerThread []float64
}

// Run executes the benchmark on h and returns the sustained bandwidth.
func Run(h *host.Host, cfg Config) Result {
	if cfg.Threads <= 0 {
		panic("stream: Threads must be positive")
	}
	if cfg.Duration <= 0 {
		panic("stream: Duration must be positive")
	}
	s := h.Sim
	eng := s.Engine
	m := h.M

	var transfers []*fluid.Transfer
	// One process per node under binding (so threads pin locally); a
	// single unpinned process otherwise.
	var procs []*host.Process
	if cfg.Policy == numa.PolicyBind {
		for _, n := range m.Nodes {
			procs = append(procs, h.NewProcess(fmt.Sprintf("stream-n%d", n.ID), numa.PolicyBind, n))
		}
	} else {
		procs = []*host.Process{h.NewProcess("stream", cfg.Policy, nil)}
	}

	for i := 0; i < cfg.Threads; i++ {
		proc := procs[i%len(procs)]
		th := proc.NewThread()
		var arrays *numa.Buffer
		if node := th.Node(); node != nil {
			arrays = m.NewBuffer(fmt.Sprintf("stream-arrays-%d", i), node)
		} else {
			arrays = m.InterleavedBuffer(fmt.Sprintf("stream-arrays-%d", i))
		}
		f := s.NewFlow(fmt.Sprintf("stream/%s/t%d", cfg.Kernel, i), 1e30)
		rs := cfg.Kernel.readShare()
		// Flow units are bytes of memory traffic.
		th.ChargeMemory(f, arrays, rs, false)
		th.ChargeMemory(f, arrays, 1-rs, true)
		penalty := rs*th.MemoryPenalty(arrays, false) + (1-rs)*th.MemoryPenalty(arrays, true)
		th.ChargeCPU(f, cfg.ComputeCyclesPerByte*penalty, host.CatUser)
		tr := &fluid.Transfer{Flow: f, Remaining: 1e30}
		transfers = append(transfers, tr)
		s.Start(tr)
	}

	start := eng.Now()
	eng.RunUntil(start + sim.Time(cfg.Duration))
	s.Sync()
	res := Result{Kernel: cfg.Kernel}
	for _, tr := range transfers {
		rate := tr.Transferred() / float64(cfg.Duration)
		res.PerThread = append(res.PerThread, rate)
		res.Bandwidth += rate
		s.Cancel(tr)
	}
	return res
}
