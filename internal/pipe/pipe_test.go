package pipe

import (
	"math"
	"testing"

	"e2edt/internal/fluid"
	"e2edt/internal/host"
	"e2edt/internal/numa"
	"e2edt/internal/sim"
	"e2edt/internal/testbed"
)

func testHost(t *testing.T) (*sim.Engine, *fluid.Sim, *host.Host) {
	t.Helper()
	eng := sim.NewEngine()
	s := fluid.NewSim(eng)
	return eng, s, host.New("h", numa.MustNew(s, testbed.FrontEndLAN("h")))
}

func TestNullIsFree(t *testing.T) {
	_, s, h := testHost(t)
	proc := h.NewProcess("p", numa.PolicyBind, h.M.Node(0))
	th := proc.NewThread()
	buf := h.M.NewBuffer("b", h.M.Node(0))
	f := s.NewFlow("f", 10)
	if err := (Null{}).Attach(f, th, buf, 1); err != nil {
		t.Fatal(err)
	}
	if len(f.Uses) != 0 {
		t.Fatal("Null should attach nothing")
	}
}

func TestZeroChargesCPUAndMemory(t *testing.T) {
	eng, s, h := testHost(t)
	proc := h.NewProcess("p", numa.PolicyBind, h.M.Node(0))
	th := proc.NewThread()
	buf := h.M.NewBuffer("b", h.M.Node(0))
	f := s.NewFlow("f", math.Inf(1))
	if err := (Zero{}).Attach(f, th, buf, 1); err != nil {
		t.Fatal(err)
	}
	s.Start(&fluid.Transfer{Flow: f, Remaining: math.Inf(1)})
	eng.RunUntil(10)
	// Zero-fill at 0.32 cyc/B on a 2.2 GHz core caps at 6.875 GB/s.
	s.Sync()
	want := 2.2e9 / DefaultZeroCycles
	if got := f.Rate(); math.Abs(got-want)/want > 0.01 {
		t.Fatalf("zero-fill rate = %v, want %v", got, want)
	}
	rep := h.HostCPUReport()
	if rep.ByCategory[host.CatLoad] <= 0 {
		t.Fatal("zero-fill CPU not charged as load")
	}
	if h.M.Node(0).Mem.Load() <= 0 {
		t.Fatal("zero-fill memory write not charged")
	}
}

func TestZeroCustomCycles(t *testing.T) {
	eng, s, h := testHost(t)
	proc := h.NewProcess("p", numa.PolicyBind, h.M.Node(0))
	th := proc.NewThread()
	buf := h.M.NewBuffer("b", h.M.Node(0))
	f := s.NewFlow("f", math.Inf(1))
	if err := (Zero{CyclesPerByte: 1.1}).Attach(f, th, buf, 1); err != nil {
		t.Fatal(err)
	}
	s.Start(&fluid.Transfer{Flow: f, Remaining: math.Inf(1)})
	eng.RunUntil(1)
	s.Sync()
	want := 2.2e9 / 1.1
	if got := f.Rate(); math.Abs(got-want)/want > 0.01 {
		t.Fatalf("rate = %v, want %v", got, want)
	}
}
