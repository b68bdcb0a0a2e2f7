package iser

import (
	"math"
	"strings"
	"testing"

	"e2edt/internal/blockdev"
	"e2edt/internal/fabric"
	"e2edt/internal/fluid"
	"e2edt/internal/host"
	"e2edt/internal/iscsi"
	"e2edt/internal/numa"
	"e2edt/internal/sim"
	"e2edt/internal/units"
)

// backendRig is the paper's back-end SAN: initiator and target hosts joined
// by two FDR (56 Gbps) links, one per NUMA node pair.
type backendRig struct {
	eng    *sim.Engine
	s      *fluid.Sim
	init   *host.Host
	tgt    *host.Host
	links  []*fabric.Link
	target *iscsi.Target
	mover  *Mover
	sess   *iscsi.Session
}

func backendNUMA(name string) numa.Config {
	return numa.Config{
		Name: name, Nodes: 2, CoresPerNode: 8, CoreHz: 2.0e9,
		MemBandwidthPerNode:        22 * units.GBps,
		InterconnectBandwidth:      11.5 * units.GBps,
		RemoteAccessPenalty:        1.4,
		CoherencyWritePenalty:      8,
		CoherencySnoopBytesPerByte: 0.3,
		MemBytes:                   384 * units.GB,
	}
}

func newBackend(t *testing.T, policy numa.Policy, luns int) *backendRig {
	t.Helper()
	eng := sim.NewEngine()
	s := fluid.NewSim(eng)
	ci, ct := backendNUMA("init"), backendNUMA("tgt")
	hi := host.New("init", numa.MustNew(s, ci))
	ht := host.New("tgt", numa.MustNew(s, ct))
	ib := func(name string, n int) *fabric.Link {
		return fabric.Connect(s, fabric.Config{
			Name: name, Rate: units.FromGbps(56), RTT: 0.144e-3,
			MTU: 65520, HeaderBytes: 80,
		}, hi, hi.M.Node(n), ht, ht.M.Node(n))
	}
	links := []*fabric.Link{ib("ib0", 0), ib("ib1", 1)}
	tg := iscsi.NewTarget("tgt", ht, iscsi.DefaultTargetConfig(policy))
	for i := 0; i < luns; i++ {
		var homes []*numa.Node
		if policy == numa.PolicyBind {
			homes = []*numa.Node{ht.M.Node(i % 2)}
		} else {
			homes = ht.M.Nodes
		}
		tg.AddLUN(i, blockdev.NewRamdisk(ht.M, "lun", 50*units.GB, homes...))
	}
	initProc := hi.NewProcess("open-iscsi", policy, nil)
	portals := []Portal{PortalFor(links[0], ht), PortalFor(links[1], ht)}
	mv := NewMover(portals, initProc.NewThread(), tg, DefaultParams())
	return &backendRig{
		eng: eng, s: s, init: hi, tgt: ht, links: links,
		target: tg, mover: mv, sess: iscsi.NewSession(tg, mv),
	}
}

func TestPortalForOrientation(t *testing.T) {
	r := newBackend(t, numa.PolicyBind, 2)
	p := PortalFor(r.links[0], r.tgt)
	if p.TgtNIC.Host != r.tgt || p.InitNIC.Host != r.init {
		t.Fatal("portal orientation wrong")
	}
	// Reversed construction also works.
	p2 := PortalFor(r.links[0], r.init)
	if p2.TgtNIC.Host != r.init {
		t.Fatal("reversed portal orientation wrong")
	}
}

func TestPortalForForeignHostPanics(t *testing.T) {
	r := newBackend(t, numa.PolicyBind, 1)
	s2 := fluid.NewSim(sim.NewEngine())
	other := host.New("other", numa.MustNew(s2, backendNUMA("other")))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PortalFor(r.links[0], other)
}

func TestMoverValidation(t *testing.T) {
	r := newBackend(t, numa.PolicyBind, 1)
	cases := []func(){
		func() { NewMover(nil, r.mover.InitThread, r.target, DefaultParams()) },
		func() { NewMover(r.mover.Portals, nil, r.target, DefaultParams()) },
		func() { NewMover(r.mover.Portals, r.mover.InitThread, nil, DefaultParams()) },
		func() {
			p := DefaultParams()
			p.ReadPenalty = 0.5
			NewMover(r.mover.Portals, r.mover.InitThread, r.target, p)
		},
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func submitAndRun(t *testing.T, r *backendRig, op iscsi.Op, size int64) sim.Time {
	t.Helper()
	buf := r.init.M.NewBuffer("app", r.init.M.Node(0))
	var done sim.Time
	r.sess.Submit(&iscsi.Command{
		Op: op, LUN: 0, Length: size, Buffer: buf,
		OnComplete: func(now sim.Time, err error) {
			if err != nil {
				t.Fatalf("command failed: %v", err)
			}
			done = now
		},
	})
	r.eng.Run()
	if done == 0 {
		t.Fatal("command never completed")
	}
	return done
}

func TestReadCommandMovesBytes(t *testing.T) {
	r := newBackend(t, numa.PolicyBind, 2)
	submitAndRun(t, r, iscsi.OpRead, 64*units.MB)
	if r.mover.Moved != float64(64*units.MB) {
		t.Fatalf("Moved = %v, want %v", r.mover.Moved, 64*units.MB)
	}
}

func TestSCSIReadUsesTargetCPUOnlyForCopy(t *testing.T) {
	r := newBackend(t, numa.PolicyBind, 2)
	submitAndRun(t, r, iscsi.OpRead, 64*units.MB)
	// Target worker copies file→bounce: io category on the target.
	tgtRep := r.tgt.HostCPUReport()
	if tgtRep.ByCategory[host.CatIO] <= 0 {
		t.Fatal("target copy not accounted")
	}
	// Initiator pays only thin kernel handling.
	initRep := r.init.HostCPUReport()
	if initRep.ByCategory[host.CatSys] <= 0 {
		t.Fatal("initiator handling not accounted")
	}
	if initRep.Total >= tgtRep.Total {
		t.Fatalf("initiator (%v) should be cheaper than target (%v)", initRep.Total, tgtRep.Total)
	}
}

func TestWriteSlowerThanRead(t *testing.T) {
	// A single command is bound by one worker thread's copy rate; the
	// RDMA READ wire penalty only shows once the links saturate, so issue
	// enough parallel commands to fill both FDR links.
	size := int64(256 * units.MB)
	run := func(op iscsi.Op) sim.Time {
		r := newBackend(t, numa.PolicyBind, 2)
		var last sim.Time
		for lun := 0; lun < 2; lun++ {
			buf := r.init.M.NewBuffer("app", r.init.M.Node(lun))
			for i := 0; i < 4; i++ {
				r.sess.Submit(&iscsi.Command{
					Op: op, LUN: lun, Length: size, Buffer: buf,
					OnComplete: func(now sim.Time, err error) {
						if err != nil {
							t.Fatalf("cmd failed: %v", err)
						}
						if now > last {
							last = now
						}
					},
				})
			}
		}
		r.eng.Run()
		return last
	}
	tRead := run(iscsi.OpRead)
	tWrite := run(iscsi.OpWrite)
	if tWrite <= tRead {
		t.Fatalf("write (%v) should be slower than read (%v): RDMA READ penalty", tWrite, tRead)
	}
	ratio := float64(tWrite) / float64(tRead)
	if ratio < 1.02 || ratio > 1.15 {
		t.Fatalf("write/read time ratio = %.3f, want ≈1.075", ratio)
	}
}

// commandWire runs the rig to completion and returns, per link, the
// target→initiator wire coefficients summed over the distinct command flows
// named by tag that were in flight.
func (r *backendRig) commandWire(tag string) []float64 {
	seen := make(map[*fluid.Flow]bool)
	wire := make([]float64, len(r.links))
	for r.eng.Step() {
		for _, f := range r.s.Network.Flows() {
			if seen[f] || !strings.HasSuffix(f.Name, "/"+tag) {
				continue
			}
			seen[f] = true
			for _, u := range f.Uses {
				for i, l := range r.links {
					if u.Resource == l.Dir(l.B) {
						wire[i] += u.Coeff
					}
				}
			}
		}
	}
	return wire
}

func TestAffinityRouting(t *testing.T) {
	r := newBackend(t, numa.PolicyBind, 2)
	// LUN 1 lives on node 1; its workers are bound there; traffic should
	// use ib1 (the node-1 link), not ib0.
	buf := r.init.M.NewBuffer("app", r.init.M.Node(1))
	r.sess.Submit(&iscsi.Command{
		Op: iscsi.OpRead, LUN: 1, Length: 16 * units.MB, Buffer: buf, Tag: "aff",
		OnComplete: func(sim.Time, error) {},
	})
	wire := r.commandWire("aff")
	ib0, ib1 := wire[0], wire[1]
	if ib1 == 0 {
		t.Fatal("node-1 LUN should use the node-1 link")
	}
	if ib0 != 0 {
		t.Fatal("node-1 LUN leaked traffic onto the node-0 link")
	}
}

func TestRoundRobinWithoutAffinity(t *testing.T) {
	r := newBackend(t, numa.PolicyDefault, 1)
	buf := r.init.M.InterleavedBuffer("app")
	for i := 0; i < 4; i++ {
		r.sess.Submit(&iscsi.Command{
			Op: iscsi.OpRead, LUN: 0, Length: 4 * units.MB, Buffer: buf, Tag: "rr",
			OnComplete: func(sim.Time, error) {},
		})
	}
	wire := r.commandWire("rr")
	ib0, ib1 := wire[0], wire[1]
	if ib0 == 0 || ib1 == 0 {
		t.Fatalf("round-robin should use both links (ib0=%v ib1=%v)", ib0, ib1)
	}
}

func TestDefaultPolicyWritesBurnMoreCPU(t *testing.T) {
	size := int64(256 * units.MB)
	cpuFor := func(policy numa.Policy) float64 {
		r := newBackend(t, policy, 2)
		var buf *numa.Buffer
		if policy == numa.PolicyBind {
			buf = r.init.M.NewBuffer("app", r.init.M.Node(0))
		} else {
			buf = r.init.M.InterleavedBuffer("app")
		}
		done := false
		r.sess.Submit(&iscsi.Command{
			Op: iscsi.OpWrite, LUN: 0, Length: size, Buffer: buf,
			OnComplete: func(_ sim.Time, err error) {
				if err != nil {
					t.Fatalf("cmd failed: %v", err)
				}
				done = true
			},
		})
		r.eng.Run()
		if !done {
			t.Fatal("command incomplete")
		}
		return r.tgt.HostCPUReport().ByCategory[host.CatIO]
	}
	bind := cpuFor(numa.PolicyBind)
	def := cpuFor(numa.PolicyDefault)
	ratio := def / bind
	if ratio < 2 || ratio > 4.5 {
		t.Fatalf("default/bind write CPU ratio = %.2f, want ≈3 (paper §4.2)", ratio)
	}
}

func TestSendPDULatency(t *testing.T) {
	r := newBackend(t, numa.PolicyBind, 1)
	var at sim.Time
	r.mover.SendPDU(128, true, func(now sim.Time) { at = now })
	r.eng.Run()
	// opLatency + one-way + serialization.
	min := 5e-6 + 0.144e-3/2
	if float64(at) < min {
		t.Fatalf("PDU at %v, want ≥ %v", at, min)
	}
}

func TestUnknownOpPanics(t *testing.T) {
	r := newBackend(t, numa.PolicyBind, 1)
	lun := r.target.LUNs()[0]
	buf := r.init.M.NewBuffer("b", r.init.M.Node(0))
	cmd := &iscsi.Command{Op: iscsi.Op(9), LUN: 0, Length: units.MB, Buffer: buf}
	w := &iscsi.Worker{Thread: r.mover.InitThread, Bounce: buf}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown op")
		}
	}()
	r.mover.Move(cmd, lun, w, func(sim.Time) {})
	r.eng.Run()
}

func TestMoveCompletionIncludesPropagation(t *testing.T) {
	r := newBackend(t, numa.PolicyBind, 1)
	done := submitAndRun(t, r, iscsi.OpRead, units.MB)
	// Command PDU + device latency + transfer + response: ≥ 2 one-way
	// delays plus serialization.
	if float64(done) < float64(r.links[0].RTT()) {
		t.Fatalf("completion at %v implausibly fast (RTT %v)", done, r.links[0].RTT())
	}
	_ = math.Inf
}

func TestAttachPathOverMediaDevice(t *testing.T) {
	// A SAN whose LUN is an SSD: streaming reads are media-bound, and the
	// worker pays driver CPU instead of a memcpy.
	eng := sim.NewEngine()
	s := fluid.NewSim(eng)
	hi := host.New("init", numa.MustNew(s, backendNUMA("init")))
	ht := host.New("tgt", numa.MustNew(s, backendNUMA("tgt")))
	l := fabric.Connect(s, fabric.Config{Name: "ib0", Rate: units.FromGbps(56), RTT: 0.144e-3},
		hi, hi.M.Node(0), ht, ht.M.Node(0))
	tg := iscsi.NewTarget("tgt", ht, iscsi.DefaultTargetConfig(numa.PolicyBind))
	ssd := blockdev.NewSSD(s, blockdev.DefaultSSDConfig("ssd", units.TB))
	tg.AddLUN(0, ssd)
	mv := NewMover([]Portal{PortalFor(l, ht)},
		hi.NewProcess("init", numa.PolicyBind, hi.M.Node(0)).NewThread(),
		tg, DefaultParams())

	buf := hi.M.NewBuffer("app", hi.M.Node(0))
	for _, op := range []iscsi.Op{iscsi.OpRead, iscsi.OpWrite} {
		f := s.NewFlow("stream", math.Inf(1))
		mv.AttachPath(f, op, 0, buf, 1)
		tr := &fluid.Transfer{Flow: f, Remaining: math.Inf(1)}
		s.Start(tr)
		eng.RunFor(2)
		s.Sync()
		rate := f.Rate()
		// Media-bound: ≈1.5 GB/s read / 1.3 GB/s write, far below the
		// 7 GB/s link.
		if rate > 1.6*units.GBps || rate < 0.5*units.GBps {
			t.Fatalf("%v stream rate = %v, want media-bound", op, units.ToGBps(rate))
		}
		s.Cancel(tr)
	}
}

func TestAttachPathValidation(t *testing.T) {
	r := newBackend(t, numa.PolicyBind, 1)
	buf := r.init.M.NewBuffer("b", r.init.M.Node(0))
	f := r.s.NewFlow("f", 1)
	// Zero share is a no-op.
	r.mover.AttachPath(f, iscsi.OpRead, 0, buf, 0)
	if len(f.Uses) != 0 {
		t.Fatal("zero share should attach nothing")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown LUN")
		}
	}()
	r.mover.AttachPath(f, iscsi.OpRead, 9, buf, 1)
}

func TestAttachPathUnknownOpPanics(t *testing.T) {
	r := newBackend(t, numa.PolicyBind, 1)
	buf := r.init.M.NewBuffer("b", r.init.M.Node(0))
	f := r.s.NewFlow("f", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.mover.AttachPath(f, iscsi.Op(7), 0, buf, 1)
}

func TestMoveOverMediaDevice(t *testing.T) {
	// Command-based I/O against an HDD LUN: seek-bound small blocks.
	eng := sim.NewEngine()
	s := fluid.NewSim(eng)
	hi := host.New("init", numa.MustNew(s, backendNUMA("init")))
	ht := host.New("tgt", numa.MustNew(s, backendNUMA("tgt")))
	l := fabric.Connect(s, fabric.Config{Name: "ib0", Rate: units.FromGbps(56), RTT: 0.144e-3},
		hi, hi.M.Node(0), ht, ht.M.Node(0))
	tg := iscsi.NewTarget("tgt", ht, iscsi.DefaultTargetConfig(numa.PolicyBind))
	tg.AddLUN(0, blockdev.NewHDD(s, blockdev.DefaultHDDConfig("hdd", units.TB)))
	mv := NewMover([]Portal{PortalFor(l, ht)},
		hi.NewProcess("init", numa.PolicyBind, hi.M.Node(0)).NewThread(),
		tg, DefaultParams())
	sess := iscsi.NewSession(tg, mv)
	buf := hi.M.NewBuffer("app", hi.M.Node(0))
	var done sim.Time
	sess.Submit(&iscsi.Command{
		Op: iscsi.OpRead, LUN: 0, Length: 64 * units.MB, Buffer: buf,
		OnComplete: func(now sim.Time, err error) {
			if err != nil {
				t.Fatalf("cmd failed: %v", err)
			}
			done = now
		},
	})
	eng.Run()
	// 64 MB at ≈150 MB/s ≈ 0.43 s minimum.
	if float64(done) < 0.4 {
		t.Fatalf("HDD command completed implausibly fast: %v", done)
	}
}
