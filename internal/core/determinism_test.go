package core

import (
	"math"
	"strings"
	"testing"

	"e2edt/internal/fluid"
	"e2edt/internal/gridftp"
	"e2edt/internal/rftp"
)

// TestDeterministicReplay verifies the simulation's core promise: two
// identical runs produce bit-for-bit identical results — transferred
// bytes, CPU accounting, and event counts.
func TestDeterministicReplay(t *testing.T) {
	run := func() (float64, float64, map[string]float64, uint64) {
		sys, err := NewSystem(DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		r, err := sys.StartRFTP(Forward, rftp.DefaultConfig(), rftp.DefaultParams(), math.Inf(1), nil)
		if err != nil {
			t.Fatal(err)
		}
		g, err := sys.StartGridFTP(Reverse, gridftp.DefaultConfig(), math.Inf(1), nil)
		if err != nil {
			t.Fatal(err)
		}
		sys.Engine().RunFor(25)
		return r.Transferred(), g.Transferred(),
			sys.A.Front.HostCPUReport().ByCategory, sys.Engine().Processed
	}
	r1, g1, cpu1, ev1 := run()
	r2, g2, cpu2, ev2 := run()
	if r1 != r2 || g1 != g2 {
		t.Fatalf("transfers diverged: (%v,%v) vs (%v,%v)", r1, g1, r2, g2)
	}
	if ev1 != ev2 {
		t.Fatalf("event counts diverged: %d vs %d", ev1, ev2)
	}
	if len(cpu1) != len(cpu2) {
		t.Fatalf("CPU categories diverged: %v vs %v", cpu1, cpu2)
	}
	for k, v := range cpu1 {
		if cpu2[k] != v {
			t.Fatalf("CPU accounting diverged on %q: %v vs %v", k, v, cpu2[k])
		}
	}
}

// TestByteConservation checks that every RFTP stream flow charges the
// front-end wire exactly its payload plus control and framing overhead, and
// that the receiving side's writes reach the destination SAN's store
// memory.
func TestByteConservation(t *testing.T) {
	sys, err := NewSystem(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := rftp.DefaultConfig()
	tr, err := sys.StartRFTP(Forward, cfg, rftp.DefaultParams(), math.Inf(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	sys.Engine().RunFor(10)
	payload := tr.Transferred()
	if payload <= 0 {
		t.Fatal("nothing moved")
	}
	s := sys.TB.Sim
	s.Sync()

	// Each RFTP stream flow crosses its front link (sender→receiver
	// direction) at payload × (1 + ctrl/block) / framing efficiency, so
	// the wire carries exactly that per payload byte.
	p := rftp.DefaultParams()
	expect := (1 + p.CtrlBytesPerBlock/float64(cfg.BlockSize)) / (9000.0 / 9090.0)
	front := make(map[*fluid.Resource]bool)
	for _, l := range sys.TB.FrontLinks {
		front[l.Dir(l.A)] = true
	}
	stores := make(map[*fluid.Resource]bool)
	for _, n := range sys.B.Store.M.Nodes {
		stores[n.Mem] = true
	}
	streams, dstMem := 0, 0.0
	for _, f := range s.Network.Flows() {
		if !strings.HasPrefix(f.Name, "rftp/") {
			continue
		}
		streams++
		wire := 0.0
		for _, u := range f.Uses {
			if front[u.Resource] {
				wire += u.Coeff
			}
			// The receiving side writes the destination SAN, whose
			// target copies into its store memory.
			if stores[u.Resource] {
				dstMem += u.Coeff
			}
		}
		if math.Abs(wire-expect)/expect > 1e-6 {
			t.Fatalf("stream %s crosses the wire at %v per payload byte, want %v", f.Name, wire, expect)
		}
	}
	if streams == 0 {
		t.Fatal("no RFTP stream flow registered")
	}
	if dstMem <= 0 {
		t.Fatal("destination store saw no I/O traffic")
	}
}
