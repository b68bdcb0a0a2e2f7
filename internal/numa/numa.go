// Package numa models a NUMA multi-core machine as a set of fluid resources:
// per-node memory controllers, per-core execution capacity, and inter-node
// interconnect links (QPI/HyperTransport-style).
//
// The package reproduces the hardware facts the paper's tuning exploits:
//
//   - Each NUMA node has its own memory controller with finite bandwidth;
//     peak machine bandwidth is only reachable when traffic is spread across
//     nodes (STREAM Triad ≈ 50 GB/s on the paper's 2-node hosts).
//   - Accesses from a core on node A to memory on node B cross the
//     interconnect and pay both an interconnect bandwidth charge and a CPU
//     efficiency penalty (latency-bound stalls).
//   - Writes to memory that is shared across nodes trigger cache-coherency
//     invalidations, which the paper identifies as the reason un-pinned iSER
//     targets burn 3× the CPU on write workloads (§4.2).
//   - PCIe devices (NICs, HBAs) have a home node; DMA to/from a remote
//     node's memory also crosses the interconnect.
package numa

import (
	"fmt"

	"e2edt/internal/fluid"
)

// Policy selects how threads and buffers are placed on nodes, mirroring the
// numactl/libnuma options the paper evaluates.
type Policy int

const (
	// PolicyDefault is the unpinned Linux scheduler: threads migrate across
	// all nodes, so a fraction (nodes-1)/nodes of memory accesses are
	// remote on average.
	PolicyDefault Policy = iota
	// PolicyBind pins a thread (and its buffers) to one node: all accesses
	// are local. This is the paper's "NUMA-tuned" configuration.
	PolicyBind
	// PolicyInterleave spreads a buffer's pages round-robin across nodes:
	// accesses are uniformly 1/nodes local.
	PolicyInterleave
	// PolicyAuto starts unpinned (like PolicyDefault) and hands placement to
	// the adaptive engine in internal/placer, which pins threads and re-homes
	// buffers at runtime by what-if scoring against the fluid model.
	PolicyAuto
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyDefault:
		return "default"
	case PolicyBind:
		return "bind"
	case PolicyInterleave:
		return "interleave"
	case PolicyAuto:
		return "auto"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Config describes a NUMA machine. All bandwidths are bytes/second.
type Config struct {
	Name         string
	Nodes        int
	CoresPerNode int
	// CoreHz is the clock rate of each core in cycles/second.
	CoreHz float64
	// MemBandwidthPerNode is each node's memory-controller bandwidth.
	MemBandwidthPerNode float64
	// InterconnectBandwidth is the per-direction bandwidth of each
	// inter-node link.
	InterconnectBandwidth float64
	// RemoteAccessPenalty multiplies the CPU cost of work whose memory
	// operands are on a remote node (≥ 1). The paper's ~10% iperf gain
	// from binding corresponds to a modest penalty.
	RemoteAccessPenalty float64
	// CoherencyWritePenalty multiplies CPU cost for writes to memory
	// shared across nodes (cache-line invalidation storms); the paper
	// measures ≈3× CPU for unpinned tmpfs writes.
	CoherencyWritePenalty float64
	// CoherencySnoopBytesPerByte is extra interconnect traffic (both
	// directions) generated per byte written to a NUMA-remote location:
	// invalidation and snoop-response messages. Zero disables it.
	CoherencySnoopBytesPerByte float64
	// MemBytes is installed memory, for capacity checks on ramdisks.
	MemBytes int64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("numa: config %q: Nodes must be positive", c.Name)
	case c.CoresPerNode <= 0:
		return fmt.Errorf("numa: config %q: CoresPerNode must be positive", c.Name)
	case c.CoreHz <= 0:
		return fmt.Errorf("numa: config %q: CoreHz must be positive", c.Name)
	case c.MemBandwidthPerNode <= 0:
		return fmt.Errorf("numa: config %q: MemBandwidthPerNode must be positive", c.Name)
	case c.Nodes > 1 && c.InterconnectBandwidth <= 0:
		return fmt.Errorf("numa: config %q: InterconnectBandwidth required for >1 node", c.Name)
	case c.RemoteAccessPenalty < 1:
		return fmt.Errorf("numa: config %q: RemoteAccessPenalty must be ≥ 1", c.Name)
	case c.CoherencyWritePenalty < 1:
		return fmt.Errorf("numa: config %q: CoherencyWritePenalty must be ≥ 1", c.Name)
	case c.CoherencySnoopBytesPerByte < 0:
		return fmt.Errorf("numa: config %q: CoherencySnoopBytesPerByte must be ≥ 0", c.Name)
	}
	return nil
}

// Core is one CPU core; its fluid resource has capacity 1.0 core-second per
// second.
type Core struct {
	ID   int
	Node *Node
	Res  *fluid.Resource
}

// Node is one NUMA node: cores plus a memory controller.
type Node struct {
	ID    int
	Cores []*Core
	// Mem is the node's memory-controller bandwidth resource.
	Mem *fluid.Resource
	// links[j] is the interconnect resource for traffic this node sends
	// toward node j.
	links map[int]*fluid.Resource

	machine *Machine
}

// Machine is an instantiated NUMA host skeleton, with all resources
// registered in a fluid simulation.
type Machine struct {
	Cfg   Config
	Nodes []*Node
	Sim   *fluid.Sim
}

// New builds a machine from cfg, registering resources in s.
func New(s *fluid.Sim, cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{Cfg: cfg, Sim: s}
	for i := 0; i < cfg.Nodes; i++ {
		n := &Node{
			ID:      i,
			Mem:     s.AddResource(fmt.Sprintf("%s/node%d/mem", cfg.Name, i), cfg.MemBandwidthPerNode),
			links:   make(map[int]*fluid.Resource),
			machine: m,
		}
		for c := 0; c < cfg.CoresPerNode; c++ {
			core := &Core{ID: i*cfg.CoresPerNode + c, Node: n,
				Res: s.AddResource(fmt.Sprintf("%s/node%d/core%d", cfg.Name, i, i*cfg.CoresPerNode+c), 1)}
			n.Cores = append(n.Cores, core)
		}
		m.Nodes = append(m.Nodes, n)
	}
	// Fully-connected interconnect (for 2 nodes this is one QPI pair).
	for i := 0; i < cfg.Nodes; i++ {
		for j := 0; j < cfg.Nodes; j++ {
			if i == j {
				continue
			}
			m.Nodes[i].links[j] = s.AddResource(
				fmt.Sprintf("%s/qpi%d->%d", cfg.Name, i, j), cfg.InterconnectBandwidth)
		}
	}
	return m, nil
}

// MustNew is New but panics on configuration errors; for tests and presets.
func MustNew(s *fluid.Sim, cfg Config) *Machine {
	m, err := New(s, cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// TotalCores returns the machine's core count.
func (m *Machine) TotalCores() int { return m.Cfg.Nodes * m.Cfg.CoresPerNode }

// Node returns node i.
func (m *Machine) Node(i int) *Node {
	if i < 0 || i >= len(m.Nodes) {
		panic(fmt.Sprintf("numa: node %d out of range [0,%d)", i, len(m.Nodes)))
	}
	return m.Nodes[i]
}

// Link returns the interconnect resource from node a toward node b.
func (m *Machine) Link(a, b *Node) *fluid.Resource {
	if a == b {
		panic("numa: no link from a node to itself")
	}
	return a.links[b.ID]
}

// PeakMemoryBandwidth returns the machine-wide peak (all controllers).
func (m *Machine) PeakMemoryBandwidth() float64 {
	return float64(m.Cfg.Nodes) * m.Cfg.MemBandwidthPerNode
}

// RemoteFraction returns the expected fraction of memory accesses that are
// remote for a thread placed under the given policy when its data lives on
// one specific node.
func (m *Machine) RemoteFraction(p Policy) float64 {
	n := float64(m.Cfg.Nodes)
	if n <= 1 {
		return 0
	}
	switch p {
	case PolicyBind:
		return 0
	case PolicyDefault:
		// Thread runs uniformly over all nodes; data is on one node.
		return (n - 1) / n
	case PolicyInterleave:
		// Data is spread over all nodes; from any core (n-1)/n is remote.
		return (n - 1) / n
	case PolicyAuto:
		// Auto starts unpinned; once the placer converges all accesses are
		// local, but the static expectation (before placement) is default.
		return (n - 1) / n
	default:
		return (n - 1) / n
	}
}

// Buffer is a region of memory with a set of home nodes. A single home node
// models an mpol-pinned tmpfs file or a numactl-bound allocation; multiple
// home nodes model interleaved (or first-touch-scattered) memory.
type Buffer struct {
	Name  string
	Homes []*Node
}

// NewBuffer creates a buffer homed on the given nodes.
func (m *Machine) NewBuffer(name string, homes ...*Node) *Buffer {
	if len(homes) == 0 {
		panic("numa: buffer needs at least one home node")
	}
	// Copy: homes may alias a caller-owned slice (InterleavedBuffer passes
	// m.Nodes), and Rehome mutates Homes in place.
	return &Buffer{Name: name, Homes: append([]*Node(nil), homes...)}
}

// InterleavedBuffer creates a buffer spread across all nodes.
func (m *Machine) InterleavedBuffer(name string) *Buffer {
	return m.NewBuffer(name, m.Nodes...)
}

// Rehome retargets the buffer onto a new set of home nodes, modelling a
// page migration (move_pages / mbind with MPOL_MF_MOVE). Only the placement
// metadata changes here; the page-copy traffic itself is the migration
// executor's job (internal/placer charges it through the fluid network).
// Flows already charged against the old homes are unaffected until their
// coefficients are rebuilt — and the incremental solver cannot see in-place
// coefficient edits, so rebuilders must call Network.Invalidate (or
// Sim.Refresh) afterwards.
func (b *Buffer) Rehome(homes ...*Node) {
	if len(homes) == 0 {
		panic("numa: Rehome needs at least one home node")
	}
	// Three-index slice forces a fresh array: reusing b.Homes[:0] would write
	// through any alias of the old backing array (and misbehave when homes
	// itself aliases b.Homes).
	b.Homes = append(b.Homes[:0:0], homes...)
}

// Local reports whether the buffer lives entirely on node n.
func (b *Buffer) Local(n *Node) bool {
	for _, h := range b.Homes {
		if h != n {
			return false
		}
	}
	return true
}

// Access describes one memory-traffic component of a data flow, used to
// attach memory/interconnect coefficients to a fluid flow.
//
// BytesPerUnit is the memory traffic generated per byte of flow payload
// (e.g. a copy generates 1 read + 1 write = two Access entries with
// BytesPerUnit 1 each).
type Access struct {
	Buffer *Buffer
	// From is the node of the accessing agent: the core executing a
	// load/store or the home node of a DMA-ing device. Nil means the
	// access is spread uniformly over all nodes (an unpinned thread).
	From *Node
	// BytesPerUnit scales traffic relative to the flow rate.
	BytesPerUnit float64
	// Write marks stores (used by coherency accounting in the host layer;
	// the memory-controller charge is identical).
	Write bool
	// MemScale discounts the memory-controller charge for buffers that
	// stay resident in the last-level cache (small, hot bounce buffers
	// served by DDIO). Zero means 1 (full DRAM traffic). Interconnect
	// charges are not discounted: cross-socket transfers traverse the
	// interconnect even cache-to-cache.
	MemScale float64
}

// Charge attaches the memory-controller and interconnect coefficients for
// the access to flow f.
func (m *Machine) Charge(f *fluid.Flow, a Access) {
	if a.Buffer == nil {
		panic("numa: access without buffer")
	}
	if a.BytesPerUnit <= 0 {
		return
	}
	share := a.BytesPerUnit / float64(len(a.Buffer.Homes))
	memScale := a.MemScale
	if memScale <= 0 {
		memScale = 1
	}
	snoop := func(home, other *Node, remoteShare float64) {
		// Remote writes generate invalidation/snoop traffic both ways.
		if !a.Write || m.Cfg.CoherencySnoopBytesPerByte <= 0 || remoteShare <= 0 {
			return
		}
		extra := remoteShare * m.Cfg.CoherencySnoopBytesPerByte
		f.Use(m.Link(other, home), extra)
		f.Use(m.Link(home, other), extra)
	}
	for _, home := range a.Buffer.Homes {
		f.Use(home.Mem, share*memScale)
		switch {
		case a.From == nil:
			// Accessing agent spread across all nodes: a fraction
			// (n-1)/n of traffic to this home crosses the interconnect,
			// split over the links into the home node.
			n := len(m.Nodes)
			if n <= 1 {
				continue
			}
			per := share / float64(n)
			for _, other := range m.Nodes {
				if other == home {
					continue
				}
				// Reads travel home→other, writes other→home; charge the
				// direction of payload movement.
				if a.Write {
					f.Use(m.Link(other, home), per)
				} else {
					f.Use(m.Link(home, other), per)
				}
				snoop(home, other, per)
			}
		case a.From != home:
			if a.Write {
				f.Use(m.Link(a.From, home), share)
			} else {
				f.Use(m.Link(home, a.From), share)
			}
			snoop(home, a.From, share)
		}
	}
}

// RemoteShare returns the fraction of the buffer's traffic that is remote
// when accessed from node `from` (nil = spread across all nodes).
func (m *Machine) RemoteShare(b *Buffer, from *Node) float64 {
	n := float64(len(m.Nodes))
	total := 0.0
	for _, home := range b.Homes {
		if from == nil {
			if n > 1 {
				total += (n - 1) / n
			}
		} else if from != home {
			total += 1
		}
	}
	return total / float64(len(b.Homes))
}
