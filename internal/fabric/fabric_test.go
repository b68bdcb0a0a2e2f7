package fabric

import (
	"math"
	"strings"
	"testing"

	"e2edt/internal/fluid"
	"e2edt/internal/host"
	"e2edt/internal/numa"
	"e2edt/internal/sim"
	"e2edt/internal/units"
)

func pairOfHosts(t *testing.T) (*sim.Engine, *fluid.Sim, *host.Host, *host.Host) {
	t.Helper()
	eng := sim.NewEngine()
	s := fluid.NewSim(eng)
	cfg := numa.Config{
		Name: "x", Nodes: 2, CoresPerNode: 8, CoreHz: 2.2e9,
		MemBandwidthPerNode:   25 * units.GBps,
		InterconnectBandwidth: 16 * units.GBps,
		RemoteAccessPenalty:   1.4, CoherencyWritePenalty: 3,
	}
	cfgA, cfgB := cfg, cfg
	cfgA.Name, cfgB.Name = "A", "B"
	ha := host.New("A", numa.MustNew(s, cfgA))
	hb := host.New("B", numa.MustNew(s, cfgB))
	return eng, s, ha, hb
}

func roce40() Config {
	return Config{
		Name: "roce0", Rate: units.FromGbps(40),
		RTT: 0.166 * 1e-3, MTU: 9000, HeaderBytes: 90,
	}
}

func TestLinkEndpointsAndNICs(t *testing.T) {
	_, s, ha, hb := pairOfHosts(t)
	l := Connect(s, roce40(), ha, ha.M.Node(0), hb, hb.M.Node(1))
	if l.A.Host != ha || l.B.Host != hb {
		t.Fatal("NIC hosts wrong")
	}
	if l.A.Node != ha.M.Node(0) || l.B.Node != hb.M.Node(1) {
		t.Fatal("NIC home nodes wrong")
	}
	if l.Peer(l.A) != l.B || l.Peer(l.B) != l.A {
		t.Fatal("Peer broken")
	}
}

func TestDirIsPerDirection(t *testing.T) {
	_, s, ha, hb := pairOfHosts(t)
	l := Connect(s, roce40(), ha, ha.M.Node(0), hb, hb.M.Node(0))
	if l.Dir(l.A) == l.Dir(l.B) {
		t.Fatal("directions must be independent resources")
	}
	if l.Dir(l.A).Capacity() != units.FromGbps(40) {
		t.Fatalf("direction capacity = %v, want 40 Gbps", l.Dir(l.A).Capacity())
	}
}

func TestDirForeignDevicePanics(t *testing.T) {
	_, s, ha, hb := pairOfHosts(t)
	l := Connect(s, roce40(), ha, ha.M.Node(0), hb, hb.M.Node(0))
	other := ha.NewDevice("other", ha.M.Node(0))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for foreign device")
		}
	}()
	l.Dir(other)
}

func TestFullDuplexIndependence(t *testing.T) {
	eng, s, ha, hb := pairOfHosts(t)
	l := Connect(s, Config{Name: "l", Rate: 100}, ha, ha.M.Node(0), hb, hb.M.Node(0))
	fwd := s.NewFlow("fwd", math.Inf(1))
	l.ChargeWire(fwd, l.A, 1)
	rev := s.NewFlow("rev", math.Inf(1))
	l.ChargeWire(rev, l.B, 1)
	s.Start(&fluid.Transfer{Flow: fwd, Remaining: math.Inf(1)})
	s.Start(&fluid.Transfer{Flow: rev, Remaining: math.Inf(1)})
	eng.RunUntil(1)
	s.Sync()
	if math.Abs(fwd.Rate()-100) > 1e-9 || math.Abs(rev.Rate()-100) > 1e-9 {
		t.Fatalf("duplex rates = %v/%v, want 100/100", fwd.Rate(), rev.Rate())
	}
}

func TestFramingEfficiency(t *testing.T) {
	cfg := Config{MTU: 9000, HeaderBytes: 90}
	want := 9000.0 / 9090.0
	if got := cfg.Efficiency(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("efficiency = %v, want %v", got, want)
	}
	if got := (Config{}).Efficiency(); got != 1 {
		t.Fatalf("zero-MTU efficiency = %v, want 1", got)
	}
	// Payload rate through a 100 B/s link with 1% header overhead.
	_, s, ha, hb := pairOfHosts(t)
	l := Connect(s, Config{Name: "l", Rate: 100, MTU: 9000, HeaderBytes: 90}, ha, ha.M.Node(0), hb, hb.M.Node(0))
	f := s.NewFlow("f", math.Inf(1))
	l.ChargeWire(f, l.A, 1)
	s.Network.Solve()
	if got := f.Rate(); math.Abs(got-100*want) > 1e-9 {
		t.Fatalf("payload rate = %v, want %v", got, 100*want)
	}
}

func TestDelaysAndBDP(t *testing.T) {
	_, s, ha, hb := pairOfHosts(t)
	wan := Connect(s, Config{Name: "wan", Rate: units.FromGbps(40), RTT: 0.095},
		ha, ha.M.Node(0), hb, hb.M.Node(0))
	if got := wan.RTT(); got != 0.095 {
		t.Fatalf("RTT = %v", got)
	}
	if got := wan.OneWayDelay(); math.Abs(float64(got)-0.0475) > 1e-12 {
		t.Fatalf("one-way = %v", got)
	}
	// Paper: BDP close to 500 MB. 5 Gbyte/s × 0.095 s = 475 MB.
	if got := wan.BDP(); math.Abs(got-475e6) > 1e3 {
		t.Fatalf("BDP = %v, want 475 MB", got)
	}
}

func TestMessageDelayAndSend(t *testing.T) {
	eng, s, ha, hb := pairOfHosts(t)
	l := Connect(s, Config{Name: "l", Rate: 1000, RTT: 0.2}, ha, ha.M.Node(0), hb, hb.M.Node(0))
	// 100 bytes at 1000 B/s = 0.1s serialization + 0.1s propagation.
	if got := l.MessageDelay(100); math.Abs(float64(got)-0.2) > 1e-12 {
		t.Fatalf("message delay = %v, want 0.2", got)
	}
	var arrived sim.Time
	l.Send(100, func(now sim.Time) { arrived = now })
	eng.Run()
	if math.Abs(float64(arrived)-0.2) > 1e-12 {
		t.Fatalf("message arrived at %v, want 0.2", arrived)
	}
}

func TestConnectValidation(t *testing.T) {
	_, s, ha, hb := pairOfHosts(t)
	for _, cfg := range []Config{
		{Name: "bad", Rate: 0},
		{Name: "bad", Rate: 10, RTT: -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for config %+v", cfg)
				}
			}()
			Connect(s, cfg, ha, ha.M.Node(0), hb, hb.M.Node(0))
		}()
	}
}

func TestDMAPlusWireComposition(t *testing.T) {
	// End-to-end charge: NIC A DMA-reads a buffer on A/node1 (remote to the
	// NIC on node0), wire, NIC B DMA-writes a local buffer. Verifies the
	// three charges compose on one flow.
	eng, s, ha, hb := pairOfHosts(t)
	l := Connect(s, Config{Name: "l", Rate: units.FromGbps(40)}, ha, ha.M.Node(0), hb, hb.M.Node(0))
	src := ha.M.NewBuffer("src", ha.M.Node(1)) // remote to NIC
	dst := hb.M.NewBuffer("dst", hb.M.Node(0)) // local to NIC
	f := s.NewFlow("xfer", math.Inf(1))
	l.A.ChargeDMA(f, src, 1, false)
	l.ChargeWire(f, l.A, 1)
	l.B.ChargeDMA(f, dst, 1, true)
	s.Start(&fluid.Transfer{Flow: f, Remaining: math.Inf(1)})
	eng.RunUntil(1)
	s.Sync()
	// Link 5 GB/s is the bottleneck (QPI 16, mem 25).
	if got := f.Rate(); math.Abs(got-units.FromGbps(40)) > 1 {
		t.Fatalf("rate = %v, want 40 Gbps", got)
	}
	// The source-side interconnect carried the DMA.
	if ha.M.Link(ha.M.Node(1), ha.M.Node(0)).Load() == 0 {
		t.Fatal("remote DMA read should cross the source interconnect")
	}
}

func TestFailStallsFlows(t *testing.T) {
	eng, s, ha, hb := pairOfHosts(t)
	l := Connect(s, Config{Name: "l", Rate: 100}, ha, ha.M.Node(0), hb, hb.M.Node(0))
	f := s.NewFlow("f", math.Inf(1))
	l.ChargeWire(f, l.A, 1)
	tr := &fluid.Transfer{Flow: f, Remaining: math.Inf(1)}
	s.Start(tr)
	eng.RunUntil(1)
	l.Fail()
	if !l.Failed() {
		t.Fatal("link should report failed")
	}
	s.Sync()
	atFail := tr.Transferred()
	eng.RunUntil(3)
	s.Sync()
	if tr.Transferred() != atFail {
		t.Fatalf("flow moved %v bytes across a failed link", tr.Transferred()-atFail)
	}
	l.Restore()
	eng.RunUntil(4)
	s.Sync()
	if got := tr.Transferred() - atFail; math.Abs(got-100) > 1e-6 {
		t.Fatalf("post-restore volume = %v, want 100 (1s at full rate)", got)
	}
}

func TestFailDropsControlMessages(t *testing.T) {
	eng, s, ha, hb := pairOfHosts(t)
	l := Connect(s, Config{Name: "l", Rate: 100, RTT: 0.1}, ha, ha.M.Node(0), hb, hb.M.Node(0))
	l.Fail()
	delivered := false
	l.Send(64, func(sim.Time) { delivered = true })
	eng.Run()
	if delivered {
		t.Fatal("message crossed a failed link")
	}
	l.Restore()
	l.Send(64, func(sim.Time) { delivered = true })
	eng.Run()
	if !delivered {
		t.Fatal("message lost after restore")
	}
}

func TestFailRestoreIdempotent(t *testing.T) {
	_, s, ha, hb := pairOfHosts(t)
	l := Connect(s, Config{Name: "l", Rate: 100}, ha, ha.M.Node(0), hb, hb.M.Node(0))
	l.Restore() // no-op when healthy
	l.Fail()
	l.Fail() // no-op when already failed
	l.Restore()
	if l.Dir(l.A).Capacity() != 100 || l.Dir(l.B).Capacity() != 100 {
		t.Fatal("capacity not restored")
	}
}

func TestDegradeScalesBothDirections(t *testing.T) {
	eng, s, ha, hb := pairOfHosts(t)
	l := Connect(s, Config{Name: "l", Rate: 100}, ha, ha.M.Node(0), hb, hb.M.Node(0))
	fwd := s.NewFlow("fwd", math.Inf(1))
	l.ChargeWire(fwd, l.A, 1)
	rev := s.NewFlow("rev", math.Inf(1))
	l.ChargeWire(rev, l.B, 1)
	s.Start(&fluid.Transfer{Flow: fwd, Remaining: math.Inf(1)})
	s.Start(&fluid.Transfer{Flow: rev, Remaining: math.Inf(1)})
	eng.RunUntil(1)
	l.Degrade(0.4)
	eng.RunUntil(2)
	s.Sync()
	if math.Abs(fwd.Rate()-40) > 1e-9 || math.Abs(rev.Rate()-40) > 1e-9 {
		t.Fatalf("degraded rates = %v/%v, want 40/40", fwd.Rate(), rev.Rate())
	}
	if l.Failed() {
		t.Fatal("degraded link must not report failed")
	}
	if got := l.Fraction(); got != 0.4 {
		t.Fatalf("Fraction = %v, want 0.4", got)
	}
	// Control messages still flow on a degraded link.
	delivered := false
	if ok := l.Send(64, func(sim.Time) { delivered = true }); !ok {
		t.Fatal("Send refused on a degraded link")
	}
	eng.Run()
	if !delivered {
		t.Fatal("control message lost on a degraded link")
	}
	// Degrade(1) clears the degradation.
	l.Degrade(1)
	if l.Dir(l.A).Capacity() != 100 || l.Dir(l.B).Capacity() != 100 {
		t.Fatal("Degrade(1) did not restore full capacity")
	}
}

func TestDegradeFailRestoreIdempotent(t *testing.T) {
	// degrade→fail→restore sequences are idempotent and end at the
	// configured (degraded) rate; clearing the degradation afterwards
	// returns the link to the full line rate.
	_, s, ha, hb := pairOfHosts(t)
	l := Connect(s, Config{Name: "l", Rate: 100}, ha, ha.M.Node(0), hb, hb.M.Node(0))
	l.Degrade(0.25)
	l.Degrade(0.25) // no-op repeat
	l.Fail()
	if l.Dir(l.A).Capacity() != 0 || l.Fraction() != 0 {
		t.Fatal("failed link must have zero capacity and fraction")
	}
	l.Degrade(0.5) // updates the standing fraction while dark
	if l.Dir(l.A).Capacity() != 0 {
		t.Fatal("degrading a failed link must not raise capacity")
	}
	l.Restore()
	if got := l.Dir(l.A).Capacity(); got != 50 {
		t.Fatalf("restored capacity = %v, want 50 (0.5× rate)", got)
	}
	if got := l.Fraction(); got != 0.5 {
		t.Fatalf("Fraction = %v, want 0.5", got)
	}
	l.Degrade(1)
	if got := l.Dir(l.A).Capacity(); got != 100 {
		t.Fatalf("cleared capacity = %v, want 100", got)
	}
}

func TestDegradeValidation(t *testing.T) {
	_, s, ha, hb := pairOfHosts(t)
	l := Connect(s, Config{Name: "l", Rate: 100}, ha, ha.M.Node(0), hb, hb.M.Node(0))
	for _, bad := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for Degrade(%v)", bad)
				}
			}()
			l.Degrade(bad)
		}()
	}
}

func TestSendReportsDrops(t *testing.T) {
	eng, s, ha, hb := pairOfHosts(t)
	l := Connect(s, Config{Name: "l", Rate: 100, RTT: 0.1}, ha, ha.M.Node(0), hb, hb.M.Node(0))
	if ok := l.Send(64, func(sim.Time) {}); !ok {
		t.Fatal("Send on a healthy link reported a drop")
	}
	l.Fail()
	if ok := l.Send(64, func(sim.Time) {}); ok {
		t.Fatal("Send on a failed link reported delivery")
	}
	l.Send(64, func(sim.Time) {})
	if l.Drops != 2 {
		t.Fatalf("Drops = %d, want 2", l.Drops)
	}
	eng.Run()
}

func TestWatchDeliversTransitions(t *testing.T) {
	_, s, ha, hb := pairOfHosts(t)
	l := Connect(s, Config{Name: "l", Rate: 100}, ha, ha.M.Node(0), hb, hb.M.Node(0))
	var got []Event
	l.Watch(func(ev Event) { got = append(got, ev) })
	l.Fail()
	l.Fail() // idempotent: no second event
	l.Restore()
	l.Degrade(0.5)
	l.InjectErrorBurst()
	want := []Event{
		{Kind: EventDown, Fraction: 0},
		{Kind: EventUp, Fraction: 1},
		{Kind: EventDegraded, Fraction: 0.5},
		{Kind: EventErrorBurst, Fraction: 0.5},
	}
	if len(got) != len(want) {
		t.Fatalf("events = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestUnwatchInsideCallback: a watcher that unregisters itself, or a later
// watcher, during delivery is safe; the removed ones hear nothing more and
// the rest keep their registration order.
func TestUnwatchInsideCallback(t *testing.T) {
	_, s, ha, hb := pairOfHosts(t)
	l := Connect(s, Config{Name: "l", Rate: 100}, ha, ha.M.Node(0), hb, hb.M.Node(0))
	var got []string
	var unwatchA, unwatchC func()
	unwatchA = l.Watch(func(Event) { got = append(got, "a"); unwatchA() })
	l.Watch(func(Event) { got = append(got, "b"); unwatchC() })
	unwatchC = l.Watch(func(Event) { got = append(got, "c") })
	l.Watch(func(Event) { got = append(got, "d") })
	l.InjectErrorBurst()
	l.InjectErrorBurst()
	if want := "a b d b d"; strings.Join(got, " ") != want {
		t.Fatalf("deliveries %q, want %q", strings.Join(got, " "), want)
	}
	if l.Watchers() != 2 {
		t.Fatalf("%d watchers left, want 2", l.Watchers())
	}
	unwatchA() // a second call is a no-op
	if l.Watchers() != 2 {
		t.Fatalf("repeated unwatch removed another watcher: %d left", l.Watchers())
	}
}

// TestWatchUnwatchCyclesDoNotGrow: sessions that watch a link and unwatch
// at teardown leave its watcher list at its standing size.
func TestWatchUnwatchCyclesDoNotGrow(t *testing.T) {
	_, s, ha, hb := pairOfHosts(t)
	l := Connect(s, Config{Name: "l", Rate: 100}, ha, ha.M.Node(0), hb, hb.M.Node(0))
	standing, heard := 0, 0
	l.Watch(func(Event) { standing++ })
	for i := 0; i < 1000; i++ {
		unwatch := l.Watch(func(Event) { heard++ })
		if i%2 == 1 {
			l.InjectErrorBurst() // heard, then unwatched
			unwatch()
		} else {
			unwatch()
			l.InjectErrorBurst() // unwatched first: not heard
		}
	}
	if l.Watchers() != 1 || cap(l.watchers) > 4 || standing != 1000 || heard != 500 {
		t.Fatalf("after 1000 cycles: %d watchers, capacity %d, %d standing and %d session deliveries",
			l.Watchers(), cap(l.watchers), standing, heard)
	}
}

func TestErrorBurstLeavesCapacityUntouched(t *testing.T) {
	eng, s, ha, hb := pairOfHosts(t)
	l := Connect(s, Config{Name: "l", Rate: 100}, ha, ha.M.Node(0), hb, hb.M.Node(0))
	f := s.NewFlow("f", math.Inf(1))
	l.ChargeWire(f, l.A, 1)
	s.Start(&fluid.Transfer{Flow: f, Remaining: math.Inf(1)})
	eng.RunUntil(1)
	l.InjectErrorBurst()
	eng.RunUntil(2)
	s.Sync()
	if math.Abs(f.Rate()-100) > 1e-9 {
		t.Fatalf("rate after burst = %v, want 100", f.Rate())
	}
}

func TestPartialFabricFailure(t *testing.T) {
	// Two links; failing one halves aggregate capacity for flows pinned
	// per link, and the survivor is unaffected.
	eng, s, ha, hb := pairOfHosts(t)
	l1 := Connect(s, Config{Name: "l1", Rate: 100}, ha, ha.M.Node(0), hb, hb.M.Node(0))
	l2 := Connect(s, Config{Name: "l2", Rate: 100}, ha, ha.M.Node(1), hb, hb.M.Node(1))
	f1 := s.NewFlow("f1", math.Inf(1))
	l1.ChargeWire(f1, l1.A, 1)
	f2 := s.NewFlow("f2", math.Inf(1))
	l2.ChargeWire(f2, l2.A, 1)
	s.Start(&fluid.Transfer{Flow: f1, Remaining: math.Inf(1)})
	s.Start(&fluid.Transfer{Flow: f2, Remaining: math.Inf(1)})
	eng.RunUntil(1)
	l1.Fail()
	eng.RunUntil(2)
	s.Sync()
	if f1.Rate() != 0 {
		t.Fatal("flow on failed link still running")
	}
	if math.Abs(f2.Rate()-100) > 1e-9 {
		t.Fatalf("survivor flow degraded to %v", f2.Rate())
	}
}
