package host

import (
	"math"
	"testing"

	"e2edt/internal/fluid"
	"e2edt/internal/numa"
	"e2edt/internal/sim"
	"e2edt/internal/units"
)

func testMachine(t *testing.T) (*sim.Engine, *fluid.Sim, *Host) {
	t.Helper()
	eng := sim.NewEngine()
	s := fluid.NewSim(eng)
	m := numa.MustNew(s, numa.Config{
		Name:                  "h",
		Nodes:                 2,
		CoresPerNode:          4,
		CoreHz:                2e9,
		MemBandwidthPerNode:   25 * units.GBps,
		InterconnectBandwidth: 16 * units.GBps,
		RemoteAccessPenalty:   1.4,
		CoherencyWritePenalty: 3.0,
	})
	return eng, s, New("h", m)
}

func TestBoundProcessPinsThreadsRoundRobin(t *testing.T) {
	_, _, h := testMachine(t)
	p := h.NewProcess("tgt", numa.PolicyBind, h.M.Node(0))
	seen := map[int]int{}
	for i := 0; i < 8; i++ {
		th := p.NewThread()
		if th.Core == nil {
			t.Fatal("bound thread has no core")
		}
		if th.Core.Node != h.M.Node(0) {
			t.Fatal("bound thread pinned off its node")
		}
		seen[th.Core.ID]++
	}
	// 8 threads over 4 cores → each core twice.
	for id, n := range seen {
		if n != 2 {
			t.Fatalf("core %d pinned %d threads, want 2", id, n)
		}
	}
}

func TestBindWithoutNodeAssignsRoundRobin(t *testing.T) {
	_, _, h := testMachine(t)
	p0 := h.NewProcess("a", numa.PolicyBind, nil)
	p1 := h.NewProcess("b", numa.PolicyBind, nil)
	p2 := h.NewProcess("c", numa.PolicyBind, nil)
	if p0.Node != h.M.Node(0) || p1.Node != h.M.Node(1) || p2.Node != h.M.Node(0) {
		t.Fatalf("round-robin node assignment broken: %v %v %v",
			p0.Node.ID, p1.Node.ID, p2.Node.ID)
	}
}

func TestUnboundThreadHasNoCore(t *testing.T) {
	_, _, h := testMachine(t)
	p := h.NewProcess("app", numa.PolicyDefault, nil)
	th := p.NewThread()
	if th.Core != nil || th.Node() != nil {
		t.Fatal("default-policy thread should be unpinned")
	}
}

func TestChargeCPUPinnedLimitsToOneCore(t *testing.T) {
	eng, s, h := testMachine(t)
	p := h.NewProcess("app", numa.PolicyBind, h.M.Node(0))
	th := p.NewThread()
	f := s.NewFlow("f", math.Inf(1))
	// 2 cycles per byte on a 2 GHz core → max 1 GB/s.
	th.ChargeCPU(f, 2, CatUser)
	s.Start(&fluid.Transfer{Flow: f, Remaining: math.Inf(1)})
	eng.RunUntil(10)
	s.Sync()
	if got, want := f.Rate(), 1*units.GBps; math.Abs(got-want) > 1 {
		t.Fatalf("rate = %v, want %v (one core at 2 cycles/B)", got, want)
	}
}

func TestChargeCPUUnpinnedStillCappedAtOneCore(t *testing.T) {
	eng, s, h := testMachine(t)
	p := h.NewProcess("app", numa.PolicyDefault, nil)
	th := p.NewThread()
	f := s.NewFlow("f", math.Inf(1))
	th.ChargeCPU(f, 2, CatUser)
	s.Start(&fluid.Transfer{Flow: f, Remaining: math.Inf(1)})
	eng.RunUntil(10)
	s.Sync()
	// Spread over 8 cores but limiter caps at 1 core equivalent → 1 GB/s.
	if got, want := f.Rate(), 1*units.GBps; math.Abs(got-want) > 1 {
		t.Fatalf("rate = %v, want %v (limiter should cap)", got, want)
	}
}

func TestTwoThreadsOnSameCoreShare(t *testing.T) {
	eng, s, h := testMachine(t)
	// One core per node so both threads land on the same core.
	ssmall := fluid.NewSim(sim.NewEngine())
	_ = ssmall
	p := h.NewProcess("app", numa.PolicyBind, h.M.Node(0))
	t1 := p.NewThread()
	t2 := p.NewThread()
	t3 := p.NewThread()
	t4 := p.NewThread()
	t5 := p.NewThread() // wraps to core 0, same as t1
	if t5.Core != t1.Core {
		t.Fatal("expected round-robin wrap to reuse core 0")
	}
	_ = t2
	_ = t3
	_ = t4
	f1 := s.NewFlow("f1", math.Inf(1))
	t1.ChargeCPU(f1, 2, CatUser)
	f2 := s.NewFlow("f2", math.Inf(1))
	t5.ChargeCPU(f2, 2, CatUser)
	s.Start(&fluid.Transfer{Flow: f1, Remaining: math.Inf(1)})
	s.Start(&fluid.Transfer{Flow: f2, Remaining: math.Inf(1)})
	eng.RunUntil(1)
	s.Sync()
	if got := f1.Rate() + f2.Rate(); math.Abs(got-1*units.GBps) > 1 {
		t.Fatalf("combined rate on one core = %v, want 1 GB/s", got)
	}
}

func TestCPUUsageAccounting(t *testing.T) {
	eng, s, h := testMachine(t)
	p := h.NewProcess("app", numa.PolicyBind, h.M.Node(0))
	th := p.NewThread()
	f := s.NewFlow("f", math.Inf(1))
	th.ChargeCPU(f, 2, CatUser) // saturates one core
	s.Start(&fluid.Transfer{Flow: f, Remaining: math.Inf(1)})
	eng.RunUntil(10)
	rep := h.HostCPUReport()
	// One core fully busy for 10s → 10 core-seconds of "user".
	if got := rep.ByCategory[CatUser]; math.Abs(got-10) > 1e-6 {
		t.Fatalf("user core-seconds = %v, want 10", got)
	}
	if got := rep.Percent(CatUser, 10); math.Abs(got-100) > 1e-6 {
		t.Fatalf("user %% = %v, want 100", got)
	}
	if got := rep.TotalPercent(10); math.Abs(got-100) > 1e-6 {
		t.Fatalf("total %% = %v, want 100", got)
	}
	if rep.String() == "" {
		t.Fatal("report should render")
	}
}

func TestLimiterExcludedFromAccounting(t *testing.T) {
	eng, s, h := testMachine(t)
	p := h.NewProcess("app", numa.PolicyDefault, nil)
	th := p.NewThread()
	f := s.NewFlow("f", math.Inf(1))
	th.ChargeCPU(f, 2, CatSys)
	s.Start(&fluid.Transfer{Flow: f, Remaining: math.Inf(1)})
	eng.RunUntil(10)
	rep := h.HostCPUReport()
	// Limiter consumption must not appear (it would double the total);
	// only physical core seconds.
	if len(rep.ByCategory) != 1 || math.Abs(rep.Total-10) > 1e-6 {
		t.Fatalf("report %v total %v, want only sys at 10", rep.ByCategory, rep.Total)
	}
	if got := rep.ByCategory[CatSys]; math.Abs(got-10) > 1e-6 {
		t.Fatalf("sys core-seconds = %v, want 10", got)
	}
}

func TestMemoryPenalty(t *testing.T) {
	_, _, h := testMachine(t)
	pBound := h.NewProcess("b", numa.PolicyBind, h.M.Node(0))
	th := pBound.NewThread()
	local := h.M.NewBuffer("local", h.M.Node(0))
	remote := h.M.NewBuffer("remote", h.M.Node(1))

	if got := th.MemoryPenalty(local, false); got != 1 {
		t.Fatalf("local read penalty = %v, want 1", got)
	}
	if got := th.MemoryPenalty(local, true); got != 1 {
		t.Fatalf("local write penalty = %v, want 1", got)
	}
	if got := th.MemoryPenalty(remote, false); math.Abs(got-1.4) > 1e-9 {
		t.Fatalf("remote read penalty = %v, want 1.4", got)
	}
	// Remote write: 1.4 latency + 2.0 coherency = 3.4.
	if got := th.MemoryPenalty(remote, true); math.Abs(got-3.4) > 1e-9 {
		t.Fatalf("remote write penalty = %v, want 3.4", got)
	}

	pDef := h.NewProcess("d", numa.PolicyDefault, nil)
	thD := pDef.NewThread()
	// Unpinned: half the accesses remote → half the penalties.
	if got := thD.MemoryPenalty(local, false); math.Abs(got-1.2) > 1e-9 {
		t.Fatalf("unpinned read penalty = %v, want 1.2", got)
	}
	if got := thD.MemoryPenalty(local, true); math.Abs(got-2.2) > 1e-9 {
		t.Fatalf("unpinned write penalty = %v, want 2.2", got)
	}
}

func TestChargeCopyMovesTraffic(t *testing.T) {
	eng, s, h := testMachine(t)
	p := h.NewProcess("cp", numa.PolicyBind, h.M.Node(0))
	th := p.NewThread()
	src := h.M.NewBuffer("src", h.M.Node(0))
	dst := h.M.NewBuffer("dst", h.M.Node(0))
	f := s.NewFlow("f", math.Inf(1))
	th.ChargeCopy(f, src, dst, 1, 0.5, CatCopy)
	s.Start(&fluid.Transfer{Flow: f, Remaining: math.Inf(1)})
	eng.RunUntil(1)
	s.Sync()
	// Memory: read+write both on node0 → 2×rate ≤ 25 GB/s → 12.5 GB/s.
	// CPU: 0.5 cyc/B at 2 GHz → 4 GB/s cap. CPU binds.
	if got := f.Rate(); math.Abs(got-4*units.GBps) > 1 {
		t.Fatalf("copy rate = %v, want 4 GB/s (CPU-bound)", got)
	}
	rep := h.HostCPUReport()
	if rep.ByCategory[CatCopy] <= 0 {
		t.Fatal("copy category not accounted")
	}
}

func TestDeviceDMA(t *testing.T) {
	eng, s, h := testMachine(t)
	dev := h.NewDevice("nic0", h.M.Node(0))
	remoteBuf := h.M.NewBuffer("b", h.M.Node(1))
	f := s.NewFlow("f", math.Inf(1))
	dev.ChargeDMA(f, remoteBuf, 1, false)
	s.Start(&fluid.Transfer{Flow: f, Remaining: math.Inf(1)})
	eng.RunUntil(1)
	s.Sync()
	// DMA read of remote memory crosses QPI: 16 GB/s bound.
	if got := f.Rate(); math.Abs(got-16*units.GBps) > 1 {
		t.Fatalf("DMA rate = %v, want 16 GB/s", got)
	}
	// No CPU consumed.
	rep := h.HostCPUReport()
	if rep.Total != 0 {
		t.Fatalf("DMA consumed CPU: %v", rep.Total)
	}
	if len(h.Devices()) != 1 {
		t.Fatal("device not registered")
	}
}

func TestDeviceNeedsNode(t *testing.T) {
	_, _, h := testMachine(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil device node")
		}
	}()
	h.NewDevice("bad", nil)
}

func TestZeroCyclesChargeIsNoop(t *testing.T) {
	_, s, h := testMachine(t)
	p := h.NewProcess("app", numa.PolicyDefault, nil)
	th := p.NewThread()
	f := s.NewFlow("f", 10)
	th.ChargeCPU(f, 0, CatUser)
	if len(f.Uses) != 0 {
		t.Fatal("zero cycles should attach nothing")
	}
}

func TestHostCPUReportAggregates(t *testing.T) {
	eng, s, h := testMachine(t)
	p1 := h.NewProcess("a", numa.PolicyBind, h.M.Node(0))
	p2 := h.NewProcess("b", numa.PolicyBind, h.M.Node(1))
	f1 := s.NewFlow("f1", math.Inf(1))
	p1.NewThread().ChargeCPU(f1, 2, CatUser)
	f2 := s.NewFlow("f2", math.Inf(1))
	p2.NewThread().ChargeCPU(f2, 2, CatSys)
	s.Start(&fluid.Transfer{Flow: f1, Remaining: math.Inf(1)})
	s.Start(&fluid.Transfer{Flow: f2, Remaining: math.Inf(1)})
	eng.RunUntil(5)
	rep := h.HostCPUReport()
	if math.Abs(rep.ByCategory[CatUser]-5) > 1e-6 || math.Abs(rep.ByCategory[CatSys]-5) > 1e-6 {
		t.Fatalf("host report wrong: %v", rep.ByCategory)
	}
	if math.Abs(rep.Total-10) > 1e-6 {
		t.Fatalf("host total = %v, want 10", rep.Total)
	}
}

// TestThreadLimiterName: the limiter resource is named host/process/tN/limit,
// the name solver traces and utilization reports print.
func TestThreadLimiterName(t *testing.T) {
	_, _, h := testMachine(t)
	p := h.NewProcess("app", numa.PolicyDefault, nil)
	p.NewThread()
	if got := p.NewThread().limiter.Name; got != "h/app/t1/limit" {
		t.Fatalf("limiter name %q, want h/app/t1/limit", got)
	}
}
