package numa

import (
	"math"
	"testing"
	"testing/quick"

	"e2edt/internal/fluid"
	"e2edt/internal/sim"
	"e2edt/internal/units"
)

func testConfig() Config {
	return Config{
		Name:                  "m",
		Nodes:                 2,
		CoresPerNode:          8,
		CoreHz:                2.2e9,
		MemBandwidthPerNode:   25 * units.GBps,
		InterconnectBandwidth: 16 * units.GBps,
		RemoteAccessPenalty:   1.4,
		CoherencyWritePenalty: 3.0,
		MemBytes:              128 * units.GB,
	}
}

func newMachine(t *testing.T) (*fluid.Sim, *Machine) {
	t.Helper()
	s := fluid.NewSim(sim.NewEngine())
	m, err := New(s, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s, m
}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Nodes = 0 },
		func(c *Config) { c.CoresPerNode = 0 },
		func(c *Config) { c.CoreHz = 0 },
		func(c *Config) { c.MemBandwidthPerNode = 0 },
		func(c *Config) { c.InterconnectBandwidth = 0 },
		func(c *Config) { c.RemoteAccessPenalty = 0.5 },
		func(c *Config) { c.CoherencyWritePenalty = 0.9 },
	}
	for i, mutate := range cases {
		c := testConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestTopologyShape(t *testing.T) {
	_, m := newMachine(t)
	if len(m.Nodes) != 2 {
		t.Fatalf("nodes = %d, want 2", len(m.Nodes))
	}
	if m.TotalCores() != 16 {
		t.Fatalf("cores = %d, want 16", m.TotalCores())
	}
	for i, n := range m.Nodes {
		if n.ID != i {
			t.Fatalf("node %d has ID %d", i, n.ID)
		}
		if len(n.Cores) != 8 {
			t.Fatalf("node %d has %d cores", i, len(n.Cores))
		}
		if n.Mem == nil || n.Mem.Capacity() != 25*units.GBps {
			t.Fatalf("node %d memory controller misconfigured", i)
		}
	}
	// Interconnect exists in both directions.
	l01 := m.Link(m.Node(0), m.Node(1))
	l10 := m.Link(m.Node(1), m.Node(0))
	if l01 == nil || l10 == nil || l01 == l10 {
		t.Fatal("interconnect links missing or aliased")
	}
	if m.PeakMemoryBandwidth() != 50*units.GBps {
		t.Fatalf("peak mem bandwidth = %v, want 50 GB/s", m.PeakMemoryBandwidth())
	}
}

func TestLinkSelfPanics(t *testing.T) {
	_, m := newMachine(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for self-link")
		}
	}()
	m.Link(m.Node(0), m.Node(0))
}

func TestNodeOutOfRangePanics(t *testing.T) {
	_, m := newMachine(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range node")
		}
	}()
	m.Node(5)
}

func TestRemoteFraction(t *testing.T) {
	_, m := newMachine(t)
	if got := m.RemoteFraction(PolicyBind); got != 0 {
		t.Fatalf("bind remote fraction = %v, want 0", got)
	}
	if got := m.RemoteFraction(PolicyDefault); got != 0.5 {
		t.Fatalf("default remote fraction = %v, want 0.5 for 2 nodes", got)
	}
	if got := m.RemoteFraction(PolicyInterleave); got != 0.5 {
		t.Fatalf("interleave remote fraction = %v, want 0.5", got)
	}
}

func TestPolicyString(t *testing.T) {
	if PolicyDefault.String() != "default" || PolicyBind.String() != "bind" ||
		PolicyInterleave.String() != "interleave" {
		t.Fatal("policy names wrong")
	}
	if Policy(99).String() == "" {
		t.Fatal("unknown policy should still render")
	}
}

func TestLocalAccessChargesOnlyHomeController(t *testing.T) {
	s, m := newMachine(t)
	buf := m.NewBuffer("b", m.Node(0))
	f := s.NewFlow("f", math.Inf(1))
	m.Charge(f, Access{Buffer: buf, From: m.Node(0), BytesPerUnit: 1})
	s.Network.Solve()
	// Only node 0's controller limits: rate = 25 GB/s.
	if got := f.Rate(); got != 25*units.GBps {
		t.Fatalf("rate = %v, want 25 GB/s", got)
	}
	if m.Node(1).Mem.Load() != 0 {
		t.Fatal("remote controller charged for a local access")
	}
	if m.Link(m.Node(0), m.Node(1)).Load() != 0 || m.Link(m.Node(1), m.Node(0)).Load() != 0 {
		t.Fatal("interconnect charged for a local access")
	}
}

func TestRemoteReadCrossesInterconnect(t *testing.T) {
	s, m := newMachine(t)
	buf := m.NewBuffer("b", m.Node(0))
	f := s.NewFlow("f", math.Inf(1))
	// Reader on node 1 pulls from node 0: payload flows 0→1.
	m.Charge(f, Access{Buffer: buf, From: m.Node(1), BytesPerUnit: 1})
	s.Network.Solve()
	// QPI (16 GB/s) is the bottleneck, not the 25 GB/s controller.
	if got := f.Rate(); got != 16*units.GBps {
		t.Fatalf("rate = %v, want 16 GB/s (QPI-bound)", got)
	}
	if m.Link(m.Node(0), m.Node(1)).Load() == 0 {
		t.Fatal("read should charge home→reader link")
	}
	if m.Link(m.Node(1), m.Node(0)).Load() != 0 {
		t.Fatal("read should not charge reader→home link")
	}
}

func TestRemoteWriteDirection(t *testing.T) {
	s, m := newMachine(t)
	buf := m.NewBuffer("b", m.Node(0))
	f := s.NewFlow("f", math.Inf(1))
	m.Charge(f, Access{Buffer: buf, From: m.Node(1), BytesPerUnit: 1, Write: true})
	s.Network.Solve()
	if m.Link(m.Node(1), m.Node(0)).Load() == 0 {
		t.Fatal("write should charge writer→home link")
	}
	if m.Link(m.Node(0), m.Node(1)).Load() != 0 {
		t.Fatal("write should not charge home→writer link")
	}
}

func TestInterleavedBufferSplitsLoad(t *testing.T) {
	s, m := newMachine(t)
	buf := m.InterleavedBuffer("b")
	f := s.NewFlow("f", math.Inf(1))
	m.Charge(f, Access{Buffer: buf, From: m.Node(0), BytesPerUnit: 1})
	s.Network.Solve()
	// Half the traffic hits each controller; half crosses QPI. Bottleneck:
	// QPI carries 0.5×rate ≤ 16 GB/s → rate ≤ 32 GB/s; controllers carry
	// 0.5×rate ≤ 25 → rate ≤ 50. So rate = 32 GB/s.
	want := 32 * units.GBps
	if got := f.Rate(); math.Abs(got-want) > 1 {
		t.Fatalf("rate = %v, want %v", got, want)
	}
	if l0, l1 := m.Node(0).Mem.Load(), m.Node(1).Mem.Load(); math.Abs(l0-l1) > 1 {
		t.Fatalf("interleave load imbalance: %v vs %v", l0, l1)
	}
}

func TestUnpinnedAccessorSpreadsTraffic(t *testing.T) {
	s, m := newMachine(t)
	buf := m.NewBuffer("b", m.Node(0))
	f := s.NewFlow("f", math.Inf(1))
	m.Charge(f, Access{Buffer: buf, From: nil, BytesPerUnit: 1})
	s.Network.Solve()
	// Half the accesses come from node 1 → cross QPI at 0.5 coefficient.
	// Controller: 1×rate ≤ 25 GB/s; QPI: 0.5×rate ≤ 16 → rate ≤ 32.
	want := 25 * units.GBps
	if got := f.Rate(); math.Abs(got-want) > 1 {
		t.Fatalf("rate = %v, want %v", got, want)
	}
	if m.Link(m.Node(0), m.Node(1)).Load() == 0 {
		t.Fatal("unpinned read should partially cross the interconnect")
	}
}

func TestRemoteShare(t *testing.T) {
	_, m := newMachine(t)
	local := m.NewBuffer("l", m.Node(0))
	if got := m.RemoteShare(local, m.Node(0)); got != 0 {
		t.Fatalf("local share = %v, want 0", got)
	}
	if got := m.RemoteShare(local, m.Node(1)); got != 1 {
		t.Fatalf("remote share = %v, want 1", got)
	}
	if got := m.RemoteShare(local, nil); got != 0.5 {
		t.Fatalf("unpinned share = %v, want 0.5", got)
	}
	inter := m.InterleavedBuffer("i")
	if got := m.RemoteShare(inter, m.Node(0)); got != 0.5 {
		t.Fatalf("interleaved share = %v, want 0.5", got)
	}
}

func TestBufferLocal(t *testing.T) {
	_, m := newMachine(t)
	b := m.NewBuffer("b", m.Node(0))
	if !b.Local(m.Node(0)) || b.Local(m.Node(1)) {
		t.Fatal("Local misreports single-home buffer")
	}
	i := m.InterleavedBuffer("i")
	if i.Local(m.Node(0)) {
		t.Fatal("interleaved buffer cannot be local to one node")
	}
}

func TestZeroBytesPerUnitIsNoop(t *testing.T) {
	s, m := newMachine(t)
	buf := m.NewBuffer("b", m.Node(0))
	f := s.NewFlow("f", 10)
	m.Charge(f, Access{Buffer: buf, From: m.Node(0), BytesPerUnit: 0})
	if len(f.Uses) != 0 {
		t.Fatal("zero-traffic access should not attach usages")
	}
}

// Property: aggregate memory-controller charge equals BytesPerUnit
// regardless of buffer spread and accessor placement.
func TestChargeConservesTraffic(t *testing.T) {
	check := func(homeSel, fromSel uint8, bytesRaw uint16) bool {
		s, m := newMachine(t)
		var homes []*Node
		switch homeSel % 3 {
		case 0:
			homes = []*Node{m.Node(0)}
		case 1:
			homes = []*Node{m.Node(1)}
		default:
			homes = m.Nodes
		}
		buf := m.NewBuffer("b", homes...)
		var from *Node
		switch fromSel % 3 {
		case 0:
			from = m.Node(0)
		case 1:
			from = m.Node(1)
		}
		bpu := 0.1 + float64(bytesRaw%100)/10
		f := s.NewFlow("f", 1)
		m.Charge(f, Access{Buffer: buf, From: from, BytesPerUnit: bpu})
		total := 0.0
		for _, u := range f.Uses {
			if u.Resource == m.Node(0).Mem || u.Resource == m.Node(1).Mem {
				total += u.Coeff
			}
		}
		return math.Abs(total-bpu) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMustNewPanicsOnBadConfig(t *testing.T) {
	s := fluid.NewSim(sim.NewEngine())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(s, Config{})
}

func TestSingleNodeMachine(t *testing.T) {
	s := fluid.NewSim(sim.NewEngine())
	cfg := testConfig()
	cfg.Nodes = 1
	cfg.InterconnectBandwidth = 0
	m, err := New(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.RemoteFraction(PolicyDefault) != 0 {
		t.Fatal("single node machine has no remote accesses")
	}
	buf := m.NewBuffer("b", m.Node(0))
	f := s.NewFlow("f", math.Inf(1))
	m.Charge(f, Access{Buffer: buf, From: nil, BytesPerUnit: 1})
	s.Network.Solve()
	if f.Rate() != 25*units.GBps {
		t.Fatalf("rate = %v, want full controller bandwidth", f.Rate())
	}
}

func TestFourNodeMachine(t *testing.T) {
	s := fluid.NewSim(sim.NewEngine())
	cfg := testConfig()
	cfg.Nodes = 4
	cfg.CoresPerNode = 4
	m, err := New(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalCores() != 16 {
		t.Fatalf("cores = %d", m.TotalCores())
	}
	// Fully connected: 12 directed links, all distinct.
	seen := map[*fluid.Resource]bool{}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i == j {
				continue
			}
			l := m.Link(m.Node(i), m.Node(j))
			if l == nil || seen[l] {
				t.Fatalf("link %d->%d missing or aliased", i, j)
			}
			seen[l] = true
		}
	}
	if got := m.RemoteFraction(PolicyDefault); got != 0.75 {
		t.Fatalf("remote fraction = %v, want 0.75 for 4 nodes", got)
	}
	// Interleaved access from one node: 3/4 of traffic crosses links
	// toward the three remote homes.
	buf := m.InterleavedBuffer("b")
	f := s.NewFlow("f", math.Inf(1))
	m.Charge(f, Access{Buffer: buf, From: m.Node(0), BytesPerUnit: 1})
	s.Network.Solve()
	total := 0.0
	for _, u := range f.Uses {
		for i := 0; i < 4; i++ {
			if u.Resource == m.Node(i).Mem {
				total += u.Coeff
			}
		}
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("controller traffic = %v, want 1", total)
	}
}

func TestMemScaleDiscountsControllerOnly(t *testing.T) {
	s, m := newMachine(t)
	buf := m.NewBuffer("b", m.Node(0))
	f := s.NewFlow("f", 1)
	m.Charge(f, Access{Buffer: buf, From: m.Node(1), BytesPerUnit: 1, MemScale: 0.25})
	var mem, qpi float64
	for _, u := range f.Uses {
		switch u.Resource {
		case m.Node(0).Mem:
			mem += u.Coeff
		case m.Link(m.Node(0), m.Node(1)):
			qpi += u.Coeff
		}
	}
	if math.Abs(mem-0.25) > 1e-12 {
		t.Fatalf("controller coeff = %v, want 0.25", mem)
	}
	if math.Abs(qpi-1) > 1e-12 {
		t.Fatalf("interconnect coeff = %v, want 1 (undiscounted)", qpi)
	}
}

func TestSnoopTrafficOnRemoteWrites(t *testing.T) {
	s := fluid.NewSim(sim.NewEngine())
	cfg := testConfig()
	cfg.CoherencySnoopBytesPerByte = 0.5
	m, err := New(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	buf := m.NewBuffer("b", m.Node(0))
	write := s.NewFlow("w", 1)
	m.Charge(write, Access{Buffer: buf, From: m.Node(1), BytesPerUnit: 1, Write: true})
	// Data: writer→home. Snoop: both directions.
	var fwd, rev float64
	for _, u := range write.Uses {
		switch u.Resource {
		case m.Link(m.Node(1), m.Node(0)):
			fwd += u.Coeff
		case m.Link(m.Node(0), m.Node(1)):
			rev += u.Coeff
		}
	}
	if math.Abs(fwd-1.5) > 1e-12 {
		t.Fatalf("writer→home = %v, want 1 data + 0.5 snoop", fwd)
	}
	if math.Abs(rev-0.5) > 1e-12 {
		t.Fatalf("home→writer = %v, want 0.5 snoop", rev)
	}
	// Reads generate no snoop traffic.
	read := s.NewFlow("r", 1)
	m.Charge(read, Access{Buffer: buf, From: m.Node(1), BytesPerUnit: 1})
	for _, u := range read.Uses {
		if u.Resource == m.Link(m.Node(1), m.Node(0)) {
			t.Fatal("read should not charge writer→home direction")
		}
	}
}

// A one-node machine has nowhere remote to go: every policy must report a
// zero remote fraction, including the ones whose formula divides by node
// count.
func TestRemoteFractionSingleNode(t *testing.T) {
	cfg := testConfig()
	cfg.Nodes = 1
	m, err := New(fluid.NewSim(sim.NewEngine()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Policy{PolicyDefault, PolicyBind, PolicyInterleave, PolicyAuto} {
		if got := m.RemoteFraction(p); got != 0 {
			t.Fatalf("%v remote fraction on 1 node = %v, want 0", p, got)
		}
	}
}

// Interleaved data puts 1/n of the pages under the reader's own controller
// regardless of where the reader is pinned, so the remote fraction is
// (n-1)/n and must scale with the node count.
func TestRemoteFractionInterleaveScales(t *testing.T) {
	for _, nodes := range []int{2, 4} {
		cfg := testConfig()
		cfg.Nodes = nodes
		m, err := New(fluid.NewSim(sim.NewEngine()), cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := float64(nodes-1) / float64(nodes)
		if got := m.RemoteFraction(PolicyInterleave); got != want {
			t.Fatalf("interleave remote fraction on %d nodes = %v, want %v", nodes, got, want)
		}
	}
}

// Rehoming a buffer must never write through to the slice its homes were
// built from. InterleavedBuffer seeds Homes from m.Nodes; before the copy in
// NewBuffer, the first Rehome overwrote m.Nodes[0] in place and node 0
// vanished from the machine.
func TestRehomeDoesNotAliasMachineNodes(t *testing.T) {
	_, m := newMachine(t)
	n0, n1 := m.Node(0), m.Node(1)
	b := m.InterleavedBuffer("b")
	b.Rehome(n1)
	if m.Node(0) != n0 || m.Node(1) != n1 {
		t.Fatalf("Rehome corrupted machine nodes: [%p %p], want [%p %p]",
			m.Node(0), m.Node(1), n0, n1)
	}
	if len(b.Homes) != 1 || b.Homes[0] != n1 {
		t.Fatalf("Homes = %v, want [node1]", b.Homes)
	}
	// Self-aliasing rehome: new homes drawn from the current Homes slice.
	b2 := m.NewBuffer("b2", n0, n1)
	b2.Rehome(b2.Homes[1])
	if len(b2.Homes) != 1 || b2.Homes[0] != n1 {
		t.Fatalf("self-aliased Rehome: Homes = %v, want [node1]", b2.Homes)
	}
	// The caller's slice stays untouched too.
	homes := []*Node{n0, n1}
	b3 := m.NewBuffer("b3", homes...)
	b3.Rehome(n1)
	if homes[0] != n0 || homes[1] != n1 {
		t.Fatal("Rehome wrote through the caller's homes slice")
	}
}
