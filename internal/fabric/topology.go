package fabric

// Multi-stage switch topologies: the jump from the paper's single
// back-end→front-end path to a datacenter fabric. A topology generator
// takes N endpoint ports (a NIC attachment point on a simulated host) and
// wires them through pseudo-host switches into the existing Link graph, so
// every flow crossing the fabric is charged on real directional fluid
// resources, hop by hop, exactly as the two-host experiments are.
//
// Two families are generated:
//
//   - Leaf-spine: every port attaches to a leaf; every leaf attaches to
//     every spine. One ECMP decision (which spine) per cross-leaf flow.
//     The oversubscription ratio — downlink capacity into a leaf versus its
//     uplink capacity — is the knob datacenter designs trade cost against
//     congestion with.
//
//   - Fat-tree (k-ary, Al-Fares-style): k pods of k/2 edge and k/2
//     aggregation switches, (k/2)² cores, host capacity k³/4. Two ECMP
//     decisions (aggregation, core) per cross-pod flow. With equal stage
//     rates it has full bisection bandwidth.
//
// Path selection is ECMP-style: a deterministic hash of (flow key, src,
// dst) picks among the equal-cost next hops, so the same seed always routes
// the same flow the same way — load balancing without per-run randomness.

import (
	"fmt"

	"e2edt/internal/fluid"
	"e2edt/internal/host"
	"e2edt/internal/numa"
	"e2edt/internal/sim"
)

// TopoKind selects the topology family.
type TopoKind int

const (
	// TopoLeafSpine is the two-stage leaf-spine fabric.
	TopoLeafSpine TopoKind = iota
	// TopoFatTree is the three-stage k-ary fat-tree.
	TopoFatTree
)

// String names the kind ("leaf-spine", "fat-tree").
func (k TopoKind) String() string {
	if k == TopoFatTree {
		return "fat-tree"
	}
	return "leaf-spine"
}

// ParseTopoKind resolves a CLI topology name.
func ParseTopoKind(s string) (TopoKind, error) {
	switch s {
	case "leaf-spine", "leafspine":
		return TopoLeafSpine, nil
	case "fat-tree", "fattree":
		return TopoFatTree, nil
	}
	return 0, fmt.Errorf("fabric: unknown topology %q (want leaf-spine or fat-tree)", s)
}

// Endpoint is a NIC attachment point: a host and the NUMA node its port's
// PCIe slot sits on.
type Endpoint struct {
	Host *host.Host
	Node *numa.Node
}

// TopoConfig shapes a generated topology.
type TopoConfig struct {
	Kind TopoKind
	// Name prefixes every generated link and switch ("topo" when empty).
	Name string

	// HostLink is the per-port access-link template (rate, RTT, framing);
	// its Name is ignored.
	HostLink Config

	// HostsPerLeaf and Spines shape a leaf-spine fabric. Leaf count is
	// derived from the port count.
	HostsPerLeaf int
	Spines       int

	// K is the fat-tree arity (even, ≥ 2); host capacity is K³/4.
	K int

	// UplinkRate and UplinkRTT describe every switch-to-switch stage
	// (leaf→spine; edge→aggregation and aggregation→core). Rate is bytes/s
	// per link; switch stages carry no framing overhead.
	UplinkRate float64
	UplinkRTT  sim.Duration
}

// Hop is one directed traversal of a link; From identifies the direction.
type Hop struct {
	Link *Link
	From *host.Device
}

// Topology is a generated multi-stage fabric.
type Topology struct {
	Kind TopoKind
	Cfg  TopoConfig

	// PortLinks[i] is port i's access link (A side = the endpoint host).
	PortLinks []*Link

	// Leaves/Spines (leaf-spine) or Edges/Aggs/Cores (fat-tree) are the
	// switch pseudo-hosts.
	Leaves, Spines     []*host.Host
	Edges, Aggs, Cores []*host.Host
	leafOf             []int     // port → leaf (or edge) index
	up                 [][]*Link // leaf-spine: up[leaf][spine]
	edgeAgg            [][]*Link // fat-tree: edgeAgg[globalEdge][aggSlot]
	aggCore            [][]*Link // fat-tree: aggCore[globalAgg][coreSlot]
	links              []*Link   // every generated link
	half               int       // k/2 (fat-tree)
}

// switchHost builds a switch pseudo-host: a minimal 1-node machine whose
// memory system never constrains anything. Switches exist so link endpoints
// are real DMA devices; all forwarding capacity lives in the link resources,
// so every switch is an ideal non-blocking crossbar.
func switchHost(s *fluid.Sim, name string) *host.Host {
	return host.New(name, numa.MustNew(s, numa.Config{
		Name: name, Nodes: 1, CoresPerNode: 1, CoreHz: 1e9,
		MemBandwidthPerNode:   1e18,
		RemoteAccessPenalty:   1,
		CoherencyWritePenalty: 1,
		MemBytes:              1 << 40,
	}))
}

// Validate reports configuration errors for the given port count.
func (c TopoConfig) Validate(ports int) error {
	if ports <= 0 {
		return fmt.Errorf("fabric: topology needs at least one port")
	}
	if c.HostLink.Rate <= 0 {
		return fmt.Errorf("fabric: topology needs a positive HostLink.Rate")
	}
	if c.UplinkRate <= 0 {
		return fmt.Errorf("fabric: topology needs a positive UplinkRate")
	}
	switch c.Kind {
	case TopoLeafSpine:
		if c.HostsPerLeaf <= 0 || c.Spines <= 0 {
			return fmt.Errorf("fabric: leaf-spine needs positive HostsPerLeaf and Spines")
		}
	case TopoFatTree:
		if c.K < 2 || c.K%2 != 0 {
			return fmt.Errorf("fabric: fat-tree arity K must be even and ≥ 2, got %d", c.K)
		}
		if capacity := c.K * c.K * c.K / 4; ports > capacity {
			return fmt.Errorf("fabric: %d ports exceed fat-tree k=%d capacity %d", ports, c.K, capacity)
		}
	default:
		return fmt.Errorf("fabric: unknown topology kind %d", c.Kind)
	}
	return nil
}

// BuildTopology generates the fabric and attaches the given endpoint ports.
func BuildTopology(s *fluid.Sim, cfg TopoConfig, ports []Endpoint) (*Topology, error) {
	if err := cfg.Validate(len(ports)); err != nil {
		return nil, err
	}
	if cfg.Name == "" {
		cfg.Name = "topo"
	}
	t := &Topology{Kind: cfg.Kind, Cfg: cfg}
	switch cfg.Kind {
	case TopoLeafSpine:
		t.buildLeafSpine(s, ports)
	case TopoFatTree:
		t.buildFatTree(s, ports)
	}
	return t, nil
}

// accessCfg instantiates the host-link template for port i.
func (t *Topology) accessCfg(i int) Config {
	cfg := t.Cfg.HostLink
	cfg.Name = fmt.Sprintf("%s/h%04d", t.Cfg.Name, i)
	return cfg
}

// uplinkCfg builds a switch-stage link config.
func (t *Topology) uplinkCfg(name string) Config {
	return Config{Name: name, Rate: t.Cfg.UplinkRate, RTT: t.Cfg.UplinkRTT}
}

func (t *Topology) buildLeafSpine(s *fluid.Sim, ports []Endpoint) {
	cfg := t.Cfg
	nLeaves := (len(ports) + cfg.HostsPerLeaf - 1) / cfg.HostsPerLeaf
	for l := 0; l < nLeaves; l++ {
		t.Leaves = append(t.Leaves, switchHost(s, fmt.Sprintf("%s/leaf%03d", cfg.Name, l)))
	}
	for sp := 0; sp < cfg.Spines; sp++ {
		t.Spines = append(t.Spines, switchHost(s, fmt.Sprintf("%s/spine%03d", cfg.Name, sp)))
	}
	t.leafOf = make([]int, len(ports))
	for i, ep := range ports {
		l := i / cfg.HostsPerLeaf
		t.leafOf[i] = l
		link := Connect(s, t.accessCfg(i), ep.Host, ep.Node, t.Leaves[l], t.Leaves[l].M.Node(0))
		t.PortLinks = append(t.PortLinks, link)
		t.links = append(t.links, link)
	}
	t.up = make([][]*Link, nLeaves)
	for l := 0; l < nLeaves; l++ {
		t.up[l] = make([]*Link, cfg.Spines)
		for sp := 0; sp < cfg.Spines; sp++ {
			link := Connect(s,
				t.uplinkCfg(fmt.Sprintf("%s/l%03d-s%03d", cfg.Name, l, sp)),
				t.Leaves[l], t.Leaves[l].M.Node(0), t.Spines[sp], t.Spines[sp].M.Node(0))
			t.up[l][sp] = link
			t.links = append(t.links, link)
		}
	}
}

func (t *Topology) buildFatTree(s *fluid.Sim, ports []Endpoint) {
	cfg := t.Cfg
	k := cfg.K
	half := k / 2
	t.half = half
	for p := 0; p < k; p++ {
		for e := 0; e < half; e++ {
			t.Edges = append(t.Edges, switchHost(s, fmt.Sprintf("%s/p%02d-edge%02d", cfg.Name, p, e)))
		}
		for a := 0; a < half; a++ {
			t.Aggs = append(t.Aggs, switchHost(s, fmt.Sprintf("%s/p%02d-agg%02d", cfg.Name, p, a)))
		}
	}
	for c := 0; c < half*half; c++ {
		t.Cores = append(t.Cores, switchHost(s, fmt.Sprintf("%s/core%03d", cfg.Name, c)))
	}
	t.leafOf = make([]int, len(ports))
	for i, ep := range ports {
		e := i / half // global edge index; ports fill edges sequentially
		t.leafOf[i] = e
		link := Connect(s, t.accessCfg(i), ep.Host, ep.Node, t.Edges[e], t.Edges[e].M.Node(0))
		t.PortLinks = append(t.PortLinks, link)
		t.links = append(t.links, link)
	}
	// Edge→aggregation: full mesh within each pod.
	t.edgeAgg = make([][]*Link, k*half)
	for p := 0; p < k; p++ {
		for e := 0; e < half; e++ {
			ge := p*half + e
			t.edgeAgg[ge] = make([]*Link, half)
			for a := 0; a < half; a++ {
				link := Connect(s,
					t.uplinkCfg(fmt.Sprintf("%s/p%02d-e%02d-a%02d", cfg.Name, p, e, a)),
					t.Edges[ge], t.Edges[ge].M.Node(0),
					t.Aggs[p*half+a], t.Aggs[p*half+a].M.Node(0))
				t.edgeAgg[ge][a] = link
				t.links = append(t.links, link)
			}
		}
	}
	// Aggregation→core: agg slot a of every pod connects to core group a.
	t.aggCore = make([][]*Link, k*half)
	for p := 0; p < k; p++ {
		for a := 0; a < half; a++ {
			ga := p*half + a
			t.aggCore[ga] = make([]*Link, half)
			for m := 0; m < half; m++ {
				core := a*half + m
				link := Connect(s,
					t.uplinkCfg(fmt.Sprintf("%s/p%02d-a%02d-c%03d", cfg.Name, p, a, core)),
					t.Aggs[ga], t.Aggs[ga].M.Node(0),
					t.Cores[core], t.Cores[core].M.Node(0))
				t.aggCore[ga][m] = link
				t.links = append(t.links, link)
			}
		}
	}
}

// Ports returns the number of attached endpoint ports.
func (t *Topology) Ports() int { return len(t.PortLinks) }

// LinkCount returns the total number of generated links.
func (t *Topology) LinkCount() int { return len(t.links) }

// LeafIndex returns the leaf (or fat-tree edge) switch index a port
// attaches to.
func (t *Topology) LeafIndex(port int) int { return t.leafOf[port] }

// PodIndex returns the fat-tree pod a port belongs to; for leaf-spine it is
// the leaf index (the only aggregation domain).
func (t *Topology) PodIndex(port int) int {
	if t.Kind == TopoFatTree {
		return t.leafOf[port] / t.half
	}
	return t.leafOf[port]
}

// SameLeaf reports whether two ports share a leaf/edge switch.
func (t *Topology) SameLeaf(a, b int) bool { return t.leafOf[a] == t.leafOf[b] }

// mix64 is splitmix64: the ECMP hash. Deterministic, well-distributed, and
// independent of Go's map or rand internals.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Route returns the directed hop sequence from port src to port dst.
// key seeds the ECMP choice: flows with different keys spread over the
// equal-cost next hops, flows with the same key stay on one path (no
// packet reordering), and the same (key, src, dst) always routes the same
// way. src == dst returns no hops (host-local copy).
//
// Routing is dead-link-aware: when the hashed choice lands on a failed
// switch-stage link, the route scans forward from that base choice (offsets
// 1, 2, …) to the first equal-cost alternative whose links are all alive —
// the ECMP re-route a real fabric performs when a spine or trunk dies.
// The scan order is a pure function of the hash, so re-routing stays
// deterministic. If every alternative is dark the hashed choice is kept:
// the flow charges a dead link and stalls, which is the physical truth.
func (t *Topology) Route(src, dst int, key uint64) []Hop {
	if src == dst {
		return nil
	}
	h := mix64(key ^ mix64(uint64(src)<<32|uint64(dst)))
	up := t.PortLinks[src]
	down := t.PortLinks[dst]
	hops := []Hop{{Link: up, From: up.A}}
	if t.leafOf[src] == t.leafOf[dst] {
		return append(hops, Hop{Link: down, From: down.B})
	}
	switch t.Kind {
	case TopoLeafSpine:
		l1, l2 := t.leafOf[src], t.leafOf[dst]
		sp := scanAlive(int(h%uint64(len(t.Spines))), len(t.Spines), func(sp int) bool {
			return !t.up[l1][sp].Failed() && !t.up[l2][sp].Failed()
		})
		hops = append(hops,
			Hop{Link: t.up[l1][sp], From: t.up[l1][sp].A},
			Hop{Link: t.up[l2][sp], From: t.up[l2][sp].B})
	case TopoFatTree:
		e1, e2 := t.leafOf[src], t.leafOf[dst]
		p1, p2 := e1/t.half, e2/t.half
		a0 := int(h % uint64(t.half))
		if p1 == p2 {
			a := scanAlive(a0, t.half, func(a int) bool {
				return !t.edgeAgg[e1][a].Failed() && !t.edgeAgg[e2][a].Failed()
			})
			hops = append(hops,
				Hop{Link: t.edgeAgg[e1][a], From: t.edgeAgg[e1][a].A},
				Hop{Link: t.edgeAgg[e2][a], From: t.edgeAgg[e2][a].B})
			break
		}
		// Cross-pod: the aggregation slot choice pins the core group, so a
		// live path needs (edge→agg, agg→core, core→agg, agg→edge) all up
		// for some (a, m) pair. Scan a from the hashed base, and within each
		// a scan m from its hashed base.
		m0 := int(mix64(h) % uint64(t.half))
		a, m := a0, m0
		for da := 0; da < t.half; da++ {
			ca := (a0 + da) % t.half
			if t.edgeAgg[e1][ca].Failed() || t.edgeAgg[e2][ca].Failed() {
				continue
			}
			ga1, ga2 := p1*t.half+ca, p2*t.half+ca
			cm := scanAlive(m0, t.half, func(m int) bool {
				return !t.aggCore[ga1][m].Failed() && !t.aggCore[ga2][m].Failed()
			})
			if t.aggCore[ga1][cm].Failed() || t.aggCore[ga2][cm].Failed() {
				continue
			}
			a, m = ca, cm
			break
		}
		ga1, ga2 := p1*t.half+a, p2*t.half+a
		hops = append(hops,
			Hop{Link: t.edgeAgg[e1][a], From: t.edgeAgg[e1][a].A},
			Hop{Link: t.aggCore[ga1][m], From: t.aggCore[ga1][m].A},
			Hop{Link: t.aggCore[ga2][m], From: t.aggCore[ga2][m].B},
			Hop{Link: t.edgeAgg[e2][a], From: t.edgeAgg[e2][a].B})
	}
	return append(hops, Hop{Link: down, From: down.B})
}

// scanAlive returns the first choice from base (wrapping, n choices) that
// alive accepts, or base itself when none do.
func scanAlive(base, n int, alive func(int) bool) int {
	for d := 0; d < n; d++ {
		if c := (base + d) % n; alive(c) {
			return c
		}
	}
	return base
}

// Uplinks returns every switch-stage link (everything that is not an
// access link), the targets a fabric-kill chaos plan aims at.
func (t *Topology) Uplinks() []*Link { return t.links[len(t.PortLinks):] }

// SpineLinks returns every leaf→spine link attached to spine sp
// (leaf-spine only) — failing them all models a spine switch death.
func (t *Topology) SpineLinks(sp int) []*Link {
	out := make([]*Link, 0, len(t.up))
	for l := range t.up {
		out = append(out, t.up[l][sp])
	}
	return out
}

// CoreLinks returns every aggregation→core link attached to core switch
// core (fat-tree only) — failing them all models a core switch death.
func (t *Topology) CoreLinks(core int) []*Link {
	a, m := core/t.half, core%t.half
	out := make([]*Link, 0, len(t.aggCore)/t.half)
	for p := 0; p < len(t.aggCore)/t.half; p++ {
		out = append(out, t.aggCore[p*t.half+a][m])
	}
	return out
}

// ChargeRoute attaches every hop of a route (wire bandwidth and framing) to
// flow f with the given coefficient.
func ChargeRoute(f *fluid.Flow, hops []Hop, coeff float64) {
	for _, h := range hops {
		h.Link.ChargeWire(f, h.From, coeff)
	}
}

// Oversubscription returns the worst stage's downlink:uplink capacity
// ratio. 1.0 is a full-bisection (rearrangeably non-blocking) fabric;
// above 1, cross-stage traffic can congest even when access links have
// headroom.
func (t *Topology) Oversubscription() float64 {
	switch t.Kind {
	case TopoFatTree:
		// The aggregation and core stages run at one rate, so only the edge
		// stage can be oversubscribed.
		half := float64(t.Cfg.K) / 2
		edge := (half * t.Cfg.HostLink.Rate) / (half * t.Cfg.UplinkRate)
		if edge > 1 {
			return edge
		}
		return 1
	default:
		return (float64(t.Cfg.HostsPerLeaf) * t.Cfg.HostLink.Rate) /
			(float64(t.Cfg.Spines) * t.Cfg.UplinkRate)
	}
}

// BisectionBandwidth returns the aggregate one-direction capacity of the
// topmost stage cut in half — the classic bisection metric: leaf-spine
// counts every leaf→spine link, a fat-tree every aggregation→core link.
func (t *Topology) BisectionBandwidth() float64 {
	switch t.Kind {
	case TopoFatTree:
		n := float64(len(t.aggCore) * t.half) // k³/4 core links
		return n * t.Cfg.UplinkRate / 2
	default:
		return float64(len(t.Leaves)*len(t.Spines)) * t.Cfg.UplinkRate / 2
	}
}

// Describe returns a one-line topology echo for CLI output.
func (t *Topology) Describe() string {
	switch t.Kind {
	case TopoFatTree:
		return fmt.Sprintf("fat-tree k=%d: %d ports on %d edges / %d aggs / %d cores, oversub %.2f, bisection %.0f Gbps, %d links",
			t.Cfg.K, t.Ports(), len(t.Edges), len(t.Aggs), len(t.Cores),
			t.Oversubscription(), t.BisectionBandwidth()*8/1e9, t.LinkCount())
	default:
		return fmt.Sprintf("leaf-spine: %d ports on %d leaves × %d spines, oversub %.2f, bisection %.0f Gbps, %d links",
			t.Ports(), len(t.Leaves), len(t.Spines),
			t.Oversubscription(), t.BisectionBandwidth()*8/1e9, t.LinkCount())
	}
}
