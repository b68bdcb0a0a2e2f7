// Package host models the software side of a NUMA machine: processes,
// threads, thread placement (numactl-style binding versus the default
// scheduler), CPU cycle accounting, and DMA-capable devices.
//
// CPU consumption is expressed in core-seconds: "122% CPU" in the paper
// means 1.22 core-seconds consumed per second of wall time. A thread charges
// cycles-per-byte coefficients onto the fluid flow that carries its data.
// Each host keeps one fluid.Account per CPU category, and a charge to a
// physical core names its category's account; HostCPUReport reads those
// accounts. Memory, interconnect, DMA and thread-limiter charges constrain
// rates but are not accounted.
package host

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"e2edt/internal/fluid"
	"e2edt/internal/numa"
)

// CPU accounting categories, mirroring the breakdown in Figures 4, 10, 12.
const (
	CatUser = "user" // user-space protocol processing
	CatSys  = "sys"  // kernel protocol processing
	CatCopy = "copy" // user↔kernel data copies
	CatIRQ  = "irq"  // interrupt handling
	CatIO   = "io"   // file/storage I/O processing
	CatLoad = "load" // data loading (e.g. /dev/zero fill) — Figure 3/4
)

// Host is one machine: a NUMA hardware model plus processes and devices.
type Host struct {
	Name string
	M    *numa.Machine
	Sim  *fluid.Sim

	devices []*Device
	// cpu holds one account per CPU category charged so far, in first-
	// charge order: at most one per Cat* constant, however many processes
	// and threads come and go.
	cpu      []*cpuAccount
	nextCore []int // per-node round-robin pin counter
	nextNode int   // round-robin node assignment for bound processes
}

// cpuAccount is the core-seconds one category consumed on a host's
// physical cores.
type cpuAccount struct {
	cat  string
	acct fluid.Account
}

// New wraps a NUMA machine in a host.
func New(name string, m *numa.Machine) *Host {
	return &Host{Name: name, M: m, Sim: m.Sim, nextCore: make([]int, len(m.Nodes))}
}

// account returns the category's account, created on its first charge.
func (h *Host) account(category string) *fluid.Account {
	for _, c := range h.cpu {
		if c.cat == category {
			return &c.acct
		}
	}
	c := &cpuAccount{cat: category}
	h.cpu = append(h.cpu, c)
	return &c.acct
}

// Process is a named group of threads sharing a placement policy.
type Process struct {
	Host   *Host
	Name   string
	Policy numa.Policy
	// Node is the bound node under PolicyBind (nil otherwise).
	Node    *numa.Node
	Threads []*Thread
}

// NewProcess creates a process. Under PolicyBind with a nil node, nodes are
// assigned round-robin (one target process per node, as the paper's
// numactl-per-node setup does).
func (h *Host) NewProcess(name string, policy numa.Policy, node *numa.Node) *Process {
	if policy == numa.PolicyBind && node == nil {
		node = h.M.Nodes[h.nextNode%len(h.M.Nodes)]
		h.nextNode++
	}
	return &Process{Host: h, Name: name, Policy: policy, Node: node}
}

// Thread is a schedulable execution context. A bound thread is pinned to a
// specific core; an unbound thread migrates across all cores (charged as a
// uniform spread) but can still use at most one core's worth of cycles,
// enforced through a virtual limiter resource.
type Thread struct {
	Proc *Process
	ID   int
	// Core is the pinned core, nil when unbound.
	Core *numa.Core
	// limiter caps the thread at 1 core-second/second.
	limiter *fluid.Resource
}

// NewThread adds a thread to the process. Bound processes pin threads
// round-robin over the bound node's cores.
func (p *Process) NewThread() *Thread {
	h := p.Host
	t := &Thread{Proc: p, ID: len(p.Threads)}
	t.limiter = h.Sim.AddResource(h.Name+"/"+p.Name+"/t"+strconv.Itoa(t.ID)+"/limit", 1)
	if p.Policy == numa.PolicyBind && p.Node != nil {
		idx := h.nextCore[p.Node.ID] % len(p.Node.Cores)
		h.nextCore[p.Node.ID]++
		t.Core = p.Node.Cores[idx]
	}
	p.Threads = append(p.Threads, t)
	return t
}

// Release retires the thread's virtual limiter resource from the fluid
// network. Call it when the thread's owning session is torn down and no
// flow will ever charge this thread again: limiters are per-session
// state, and a workload that opens thousands of short sessions would
// otherwise grow the network — and every full solve and per-resource
// solver array over it — without bound. The host's CPU accounts are
// unaffected. Releasing a thread that a registered flow still charges
// panics in the network.
func (t *Thread) Release() {
	t.Proc.Host.Sim.RemoveResource(t.limiter)
}

// Pin binds the thread to a specific core (sched_setaffinity); nil unpins
// it back to the migrating-scheduler model. Pinning only changes where
// future ChargeCPU calls land — flows already charged keep their old
// coefficients until rebuilt, and rebuilders must invalidate the fluid
// network afterwards (see numa.Buffer.Rehome).
func (t *Thread) Pin(c *numa.Core) { t.Core = c }

// Node returns the node the thread executes on, nil when unbound.
func (t *Thread) Node() *numa.Node {
	if t.Core != nil {
		return t.Core.Node
	}
	if t.Proc.Policy == numa.PolicyBind {
		return t.Proc.Node
	}
	return nil
}

// ChargeCPU attaches cyclesPerByte of CPU work in the given category to
// flow f. The work lands on the thread's pinned core, or is spread across
// every core for an unbound thread; either way the per-thread limiter caps
// the flow at one core's throughput for this work component. The core
// charges name the host's account for the category; the limiter charge is
// unaccounted, since it constrains the solver and is no physical core.
func (t *Thread) ChargeCPU(f *fluid.Flow, cyclesPerByte float64, category string) {
	if cyclesPerByte <= 0 {
		return
	}
	h := t.Proc.Host
	coeff := cyclesPerByte / h.M.Cfg.CoreHz // core-seconds per byte
	acct := h.account(category)
	f.Use(t.limiter, coeff)
	if t.Core != nil {
		f.UseTagged(t.Core.Res, coeff, acct)
		return
	}
	cores := 0
	for _, n := range h.M.Nodes {
		cores += len(n.Cores)
	}
	per := coeff / float64(cores)
	for _, n := range h.M.Nodes {
		for _, c := range n.Cores {
			f.UseTagged(c.Res, per, acct)
		}
	}
}

// MemoryPenalty returns the CPU multiplier for work over operands in buf:
// 1.0 when all accesses are local, rising with the remote fraction, and —
// for writes to memory observed by other nodes — with the coherency
// penalty.
func (t *Thread) MemoryPenalty(buf *numa.Buffer, write bool) float64 {
	m := t.Proc.Host.M
	remote := m.RemoteShare(buf, t.Node())
	p := 1 + (m.Cfg.RemoteAccessPenalty-1)*remote
	if write {
		p += (m.Cfg.CoherencyWritePenalty - 1) * remote
	}
	return p
}

// ChargeMemory attaches memory-controller and interconnect charges for this
// thread touching buf.
func (t *Thread) ChargeMemory(f *fluid.Flow, buf *numa.Buffer, bytesPerUnit float64, write bool) {
	t.ChargeMemoryScaled(f, buf, bytesPerUnit, write, 1)
}

// ChargeMemoryScaled is ChargeMemory with a memory-controller discount for
// cache-resident buffers (see numa.Access.MemScale).
func (t *Thread) ChargeMemoryScaled(f *fluid.Flow, buf *numa.Buffer, bytesPerUnit float64, write bool, memScale float64) {
	t.Proc.Host.M.Charge(f, numa.Access{
		Buffer:       buf,
		From:         t.Node(),
		BytesPerUnit: bytesPerUnit,
		Write:        write,
		MemScale:     memScale,
	})
}

// ChargeCopy models memcpy-style data movement: read src, write dst, plus
// CPU cycles (already penalty-adjusted for the placement of both buffers).
func (t *Thread) ChargeCopy(f *fluid.Flow, src, dst *numa.Buffer, bytesPerUnit, cyclesPerByte float64, category string) {
	t.ChargeMemory(f, src, bytesPerUnit, false)
	t.ChargeMemory(f, dst, bytesPerUnit, true)
	penalty := (t.MemoryPenalty(src, false) + t.MemoryPenalty(dst, true)) / 2
	t.ChargeCPU(f, cyclesPerByte*bytesPerUnit*penalty, category)
}

// Device is a DMA-capable PCIe device (NIC, HBA) with a home node. DMA
// consumes memory and interconnect bandwidth but no CPU.
type Device struct {
	Host *Host
	Name string
	Node *numa.Node
}

// NewDevice registers a device on the given node.
func (h *Host) NewDevice(name string, node *numa.Node) *Device {
	if node == nil {
		panic("host: device needs a home node")
	}
	d := &Device{Host: h, Name: name, Node: node}
	h.devices = append(h.devices, d)
	return d
}

// Devices returns the host's registered devices.
func (h *Host) Devices() []*Device { return h.devices }

// ChargeDMA attaches DMA traffic between the device and buf to flow f.
// write=true means the device writes into memory (receive path).
func (d *Device) ChargeDMA(f *fluid.Flow, buf *numa.Buffer, bytesPerUnit float64, write bool) {
	d.ChargeDMAScaled(f, buf, bytesPerUnit, write, 1)
}

// ChargeDMAScaled is ChargeDMA with a memory-controller discount for
// cache-resident buffers (DDIO: NIC DMA served from the last-level cache).
func (d *Device) ChargeDMAScaled(f *fluid.Flow, buf *numa.Buffer, bytesPerUnit float64, write bool, memScale float64) {
	d.Host.M.Charge(f, numa.Access{
		Buffer:       buf,
		From:         d.Node,
		BytesPerUnit: bytesPerUnit,
		Write:        write,
		MemScale:     memScale,
	})
}

// CPUReport summarizes consumption per category (core-seconds).
type CPUReport struct {
	// ByCategory maps category (user/sys/copy/irq/io) to core-seconds.
	ByCategory map[string]float64
	// Total is the sum over categories.
	Total float64
}

// Percent returns a category's average utilization over elapsed seconds, in
// percent of one core (the paper's "122% CPU" convention).
func (r CPUReport) Percent(category string, elapsed float64) float64 {
	if elapsed <= 0 {
		return 0
	}
	return r.ByCategory[category] / elapsed * 100
}

// TotalPercent returns total utilization in percent-of-one-core.
func (r CPUReport) TotalPercent(elapsed float64) float64 {
	if elapsed <= 0 {
		return 0
	}
	return r.Total / elapsed * 100
}

// String renders categories sorted by descending consumption.
func (r CPUReport) String() string {
	type kv struct {
		k string
		v float64
	}
	var items []kv
	for k, v := range r.ByCategory {
		items = append(items, kv{k, v})
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].v != items[j].v {
			return items[i].v > items[j].v
		}
		return items[i].k < items[j].k
	})
	var b strings.Builder
	for i, it := range items {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%.2fs", it.k, it.v)
	}
	return b.String()
}

// HostCPUReport reads the host's CPU accounts: core-seconds per category
// on its physical cores, over all processes that ran there.
func (h *Host) HostCPUReport() CPUReport {
	h.Sim.Sync()
	rep := CPUReport{ByCategory: make(map[string]float64)}
	for _, c := range h.cpu {
		if v := h.Sim.Used(&c.acct); v > 0 {
			rep.ByCategory[c.cat] = v
			rep.Total += v
		}
	}
	return rep
}
