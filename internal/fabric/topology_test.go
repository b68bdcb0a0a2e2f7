package fabric

import (
	"math"
	"testing"

	"e2edt/internal/fluid"
	"e2edt/internal/host"
	"e2edt/internal/numa"
	"e2edt/internal/sim"
	"e2edt/internal/units"
)

// testPorts builds n tiny endpoint hosts and returns their NIC attachment
// points.
func testPorts(s *fluid.Sim, n int) []Endpoint {
	eps := make([]Endpoint, n)
	for i := range eps {
		h := host.New("h", numa.MustNew(s, numa.Config{
			Nodes: 1, CoresPerNode: 1, CoreHz: 1e9,
			MemBandwidthPerNode:   1e12,
			RemoteAccessPenalty:   1,
			CoherencyWritePenalty: 1,
			MemBytes:              1 << 30,
		}))
		eps[i] = Endpoint{Host: h, Node: h.M.Node(0)}
	}
	return eps
}

func leafSpineCfg(hostRate, uplinkRate float64, perLeaf, spines int) TopoConfig {
	return TopoConfig{
		Kind:         TopoLeafSpine,
		HostLink:     Config{Rate: hostRate, RTT: 10e-6},
		HostsPerLeaf: perLeaf,
		Spines:       spines,
		UplinkRate:   uplinkRate,
		UplinkRTT:    sim.Duration(5e-6),
	}
}

func TestLeafSpineCounts(t *testing.T) {
	eng := sim.NewEngine()
	s := fluid.NewSim(eng)
	ports := 48
	topo, err := BuildTopology(s, leafSpineCfg(units.FromGbps(10), units.FromGbps(40), 16, 4), testPorts(s, ports))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(topo.Leaves), 3; got != want {
		t.Fatalf("leaves = %d, want %d", got, want)
	}
	if got, want := len(topo.Spines), 4; got != want {
		t.Fatalf("spines = %d, want %d", got, want)
	}
	// Links: one access per port + leaves×spines uplinks.
	if got, want := topo.LinkCount(), ports+3*4; got != want {
		t.Fatalf("links = %d, want %d", got, want)
	}
	// Oversubscription: (16 × 10G) / (4 × 40G) = 1.0.
	if got := topo.Oversubscription(); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("oversubscription = %g, want 1.0", got)
	}
	// Bisection: 3 leaves × 4 spines × 40G / 2 = 240 Gbps.
	if got, want := topo.BisectionBandwidth(), 12*units.FromGbps(40)/2; math.Abs(got-want) > 1 {
		t.Fatalf("bisection = %g, want %g", got, want)
	}
}

func TestLeafSpineOversubscribed(t *testing.T) {
	eng := sim.NewEngine()
	s := fluid.NewSim(eng)
	// 32 hosts × 10G per leaf over 2 × 40G uplinks = 4:1 oversubscription.
	topo, err := BuildTopology(s, leafSpineCfg(units.FromGbps(10), units.FromGbps(40), 32, 2), testPorts(s, 64))
	if err != nil {
		t.Fatal(err)
	}
	if got := topo.Oversubscription(); math.Abs(got-4.0) > 1e-12 {
		t.Fatalf("oversubscription = %g, want 4.0", got)
	}
}

func TestFatTreeCounts(t *testing.T) {
	eng := sim.NewEngine()
	s := fluid.NewSim(eng)
	k := 4 // capacity k³/4 = 16 hosts
	ports := 16
	cfg := TopoConfig{
		Kind:       TopoFatTree,
		K:          k,
		HostLink:   Config{Rate: units.FromGbps(10), RTT: 10e-6},
		UplinkRate: units.FromGbps(10),
		UplinkRTT:  sim.Duration(5e-6),
	}
	topo, err := BuildTopology(s, cfg, testPorts(s, ports))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(topo.Edges), k*k/2; got != want {
		t.Fatalf("edges = %d, want %d", got, want)
	}
	if got, want := len(topo.Aggs), k*k/2; got != want {
		t.Fatalf("aggs = %d, want %d", got, want)
	}
	if got, want := len(topo.Cores), k*k/4; got != want {
		t.Fatalf("cores = %d, want %d", got, want)
	}
	// Links: 16 access + k³/4 edge-agg + k³/4 agg-core = 16 + 16 + 16.
	if got, want := topo.LinkCount(), ports+k*k*k/4*2; got != want {
		t.Fatalf("links = %d, want %d", got, want)
	}
	// Equal stage rates → full bisection, oversubscription 1.
	if got := topo.Oversubscription(); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("oversubscription = %g, want 1.0", got)
	}
	// Bisection: k³/4 core links × rate / 2.
	want := float64(k*k*k/4) * units.FromGbps(10) / 2
	if got := topo.BisectionBandwidth(); math.Abs(got-want) > 1 {
		t.Fatalf("bisection = %g, want %g", got, want)
	}
}

func TestFatTreeOversubscribedStages(t *testing.T) {
	eng := sim.NewEngine()
	s := fluid.NewSim(eng)
	// Hosts at 40G into 10G uplinks: edge stage 4:1, while the agg→core
	// stage runs at the uplink rate (1:1); the worst stage must win.
	cfg := TopoConfig{
		Kind:       TopoFatTree,
		K:          4,
		HostLink:   Config{Rate: units.FromGbps(40), RTT: 10e-6},
		UplinkRate: units.FromGbps(10),
	}
	topo, err := BuildTopology(s, cfg, testPorts(s, 8))
	if err != nil {
		t.Fatal(err)
	}
	if got := topo.Oversubscription(); math.Abs(got-4.0) > 1e-12 {
		t.Fatalf("oversubscription = %g, want 4.0", got)
	}
}

func TestFatTreeCapacity(t *testing.T) {
	eng := sim.NewEngine()
	s := fluid.NewSim(eng)
	cfg := TopoConfig{
		Kind:       TopoFatTree,
		K:          2, // capacity 2
		HostLink:   Config{Rate: 1e9},
		UplinkRate: 1e9,
	}
	if _, err := BuildTopology(s, cfg, testPorts(s, 3)); err == nil {
		t.Fatal("3 ports must not fit a k=2 fat-tree")
	}
}

// routeValid walks the hop list checking that consecutive hops share a
// switch host and the route starts at src and ends at dst.
func routeValid(t *testing.T, topo *Topology, src, dst int, hops []Hop) {
	t.Helper()
	if len(hops) == 0 {
		t.Fatalf("route %d→%d is empty", src, dst)
	}
	if hops[0].Link != topo.PortLinks[src] {
		t.Fatalf("route %d→%d does not start at src access link", src, dst)
	}
	if hops[len(hops)-1].Link != topo.PortLinks[dst] {
		t.Fatalf("route %d→%d does not end at dst access link", src, dst)
	}
	for i, h := range hops {
		// From must be one of the link's endpoints (Dir panics otherwise).
		h.Link.Dir(h.From)
		if i == 0 {
			continue
		}
		prev := hops[i-1]
		// The previous hop's exit host must be this hop's entry host.
		if prev.Link.Peer(prev.From).Host != h.From.Host {
			t.Fatalf("route %d→%d hop %d: discontinuity %s → %s",
				src, dst, i, prev.Link.Cfg.Name, h.Link.Cfg.Name)
		}
	}
}

func TestRoutesConnect(t *testing.T) {
	eng := sim.NewEngine()
	s := fluid.NewSim(eng)
	ls, err := BuildTopology(s, leafSpineCfg(units.FromGbps(10), units.FromGbps(40), 4, 3), testPorts(s, 12))
	if err != nil {
		t.Fatal(err)
	}
	ft, err := BuildTopology(s, TopoConfig{
		Kind: TopoFatTree, K: 4, Name: "ft",
		HostLink:   Config{Rate: units.FromGbps(10), RTT: 10e-6},
		UplinkRate: units.FromGbps(10),
	}, testPorts(s, 16))
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range []*Topology{ls, ft} {
		n := topo.Ports()
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if src == dst {
					if hops := topo.Route(src, dst, 1); hops != nil {
						t.Fatalf("self-route must be empty, got %d hops", len(hops))
					}
					continue
				}
				for key := uint64(0); key < 4; key++ {
					routeValid(t, topo, src, dst, topo.Route(src, dst, key))
				}
			}
		}
	}
}

func TestRouteHopCounts(t *testing.T) {
	eng := sim.NewEngine()
	s := fluid.NewSim(eng)
	ft, err := BuildTopology(s, TopoConfig{
		Kind: TopoFatTree, K: 4,
		HostLink:   Config{Rate: units.FromGbps(10)},
		UplinkRate: units.FromGbps(10),
	}, testPorts(s, 16))
	if err != nil {
		t.Fatal(err)
	}
	// Ports 0,1 share an edge; 0,2 share a pod; 0,8 cross pods.
	if got := len(ft.Route(0, 1, 7)); got != 2 {
		t.Fatalf("same-edge route: %d hops, want 2", got)
	}
	if got := len(ft.Route(0, 2, 7)); got != 4 {
		t.Fatalf("same-pod route: %d hops, want 4", got)
	}
	if got := len(ft.Route(0, 8, 7)); got != 6 {
		t.Fatalf("cross-pod route: %d hops, want 6", got)
	}
	if !ft.SameLeaf(0, 1) || ft.SameLeaf(0, 2) {
		t.Fatal("SameLeaf misclassifies fat-tree edges")
	}
	if ft.PodIndex(0) != 0 || ft.PodIndex(8) != 2 {
		t.Fatalf("PodIndex: got %d,%d want 0,2", ft.PodIndex(0), ft.PodIndex(8))
	}
}

func TestRouteECMPDeterministicAndSpreading(t *testing.T) {
	eng := sim.NewEngine()
	s := fluid.NewSim(eng)
	topo, err := BuildTopology(s, leafSpineCfg(units.FromGbps(10), units.FromGbps(40), 4, 4), testPorts(s, 16))
	if err != nil {
		t.Fatal(err)
	}
	// Same (src, dst, key) → identical path, always.
	a := topo.Route(0, 12, 42)
	b := topo.Route(0, 12, 42)
	if len(a) != len(b) {
		t.Fatal("ECMP route not deterministic")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("ECMP route not deterministic")
		}
	}
	// Different keys must spread over more than one spine.
	seen := map[*Link]bool{}
	for key := uint64(0); key < 64; key++ {
		hops := topo.Route(0, 12, key)
		seen[hops[1].Link] = true // the leaf→spine uplink
	}
	if len(seen) < 2 {
		t.Fatalf("ECMP used %d spines for 64 keys, want ≥ 2", len(seen))
	}
}

// TestRouteAvoidsDeadSpine: after a spine dies, every cross-leaf route
// lands on a surviving spine, and the detour is deterministic.
func TestRouteAvoidsDeadSpine(t *testing.T) {
	eng := sim.NewEngine()
	s := fluid.NewSim(eng)
	topo, err := BuildTopology(s, leafSpineCfg(units.FromGbps(10), units.FromGbps(40), 4, 4), testPorts(s, 16))
	if err != nil {
		t.Fatal(err)
	}
	dead := 2
	spineOf := func(hops []Hop) int {
		for sp := range topo.Spines {
			if hops[1].Link == topo.up[topo.LeafIndex(0)][sp] {
				return sp
			}
		}
		return -1
	}
	// Find a key that naturally hashes to the doomed spine.
	key := uint64(0)
	for ; key < 1024; key++ {
		if spineOf(topo.Route(0, 12, key)) == dead {
			break
		}
	}
	if spineOf(topo.Route(0, 12, key)) != dead {
		t.Fatal("no key hashed onto the doomed spine")
	}
	for _, l := range topo.SpineLinks(dead) {
		l.Fail()
	}
	hops := topo.Route(0, 12, key)
	routeValid(t, topo, 0, 12, hops)
	if sp := spineOf(hops); sp == dead {
		t.Fatal("route still uses the dead spine")
	}
	for _, h := range hops {
		if h.Link.Failed() {
			t.Fatalf("re-route crosses failed link %s", h.Link.Cfg.Name)
		}
	}
	again := topo.Route(0, 12, key)
	for i := range hops {
		if hops[i] != again[i] {
			t.Fatal("re-route not deterministic")
		}
	}
	// Heal: the original hashed choice comes back.
	for _, l := range topo.SpineLinks(dead) {
		l.Restore()
	}
	if spineOf(topo.Route(0, 12, key)) != dead {
		t.Fatal("route did not return to the hashed spine after heal")
	}
}

// TestRouteAllSpinesDeadKeepsHashedChoice: with no live alternative the
// route keeps the hashed path (the flow stalls — physical truth).
func TestRouteAllSpinesDeadKeepsHashedChoice(t *testing.T) {
	eng := sim.NewEngine()
	s := fluid.NewSim(eng)
	topo, err := BuildTopology(s, leafSpineCfg(units.FromGbps(10), units.FromGbps(40), 4, 2), testPorts(s, 8))
	if err != nil {
		t.Fatal(err)
	}
	before := topo.Route(0, 6, 9)
	for _, l := range topo.Uplinks() {
		l.Fail()
	}
	after := topo.Route(0, 6, 9)
	if len(before) != len(after) {
		t.Fatal("hop count changed with every uplink dead")
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("route changed despite no live alternative")
		}
	}
}

// TestFatTreeRouteAvoidsDeadCore: killing a core switch (all its trunk
// links) steers cross-pod routes onto surviving cores, still valid.
func TestFatTreeRouteAvoidsDeadCore(t *testing.T) {
	eng := sim.NewEngine()
	s := fluid.NewSim(eng)
	ft, err := BuildTopology(s, TopoConfig{
		Kind: TopoFatTree, K: 4,
		HostLink:   Config{Rate: units.FromGbps(10)},
		UplinkRate: units.FromGbps(10),
	}, testPorts(s, 16))
	if err != nil {
		t.Fatal(err)
	}
	coreUsed := func(hops []Hop) *host.Host {
		for _, h := range hops {
			for _, c := range ft.Cores {
				if h.Link.B.Host == c {
					return c
				}
			}
		}
		return nil
	}
	// Kill core 0; check many (key) draws all avoid it and stay valid.
	for _, l := range ft.CoreLinks(0) {
		l.Fail()
	}
	for key := uint64(0); key < 64; key++ {
		hops := ft.Route(0, 8, key)
		routeValid(t, ft, 0, 8, hops)
		if c := coreUsed(hops); c == ft.Cores[0] {
			t.Fatalf("key %d still routed through dead core", key)
		}
		for _, h := range hops {
			if h.Link.Failed() {
				t.Fatalf("key %d crosses failed link %s", key, h.Link.Cfg.Name)
			}
		}
	}
}

// TestUplinkAccessors: Uplinks excludes access links; SpineLinks/CoreLinks
// return one link per attached switch of the other stage.
func TestUplinkAccessors(t *testing.T) {
	eng := sim.NewEngine()
	s := fluid.NewSim(eng)
	ls, err := BuildTopology(s, leafSpineCfg(units.FromGbps(10), units.FromGbps(40), 4, 3), testPorts(s, 12))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(ls.Uplinks()), 3*3; got != want {
		t.Fatalf("leaf-spine uplinks = %d, want %d", got, want)
	}
	if got, want := len(ls.SpineLinks(1)), 3; got != want {
		t.Fatalf("SpineLinks(1) = %d links, want %d (one per leaf)", got, want)
	}
	ft, err := BuildTopology(s, TopoConfig{
		Kind: TopoFatTree, K: 4, Name: "ft2",
		HostLink:   Config{Rate: units.FromGbps(10)},
		UplinkRate: units.FromGbps(10),
	}, testPorts(s, 16))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(ft.Uplinks()), 32; got != want {
		t.Fatalf("fat-tree uplinks = %d, want %d", got, want)
	}
	if got, want := len(ft.CoreLinks(0)), 4; got != want {
		t.Fatalf("CoreLinks(0) = %d links, want %d (one per pod)", got, want)
	}
}
