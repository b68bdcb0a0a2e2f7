package xfersched

import (
	"math"
	"testing"

	"e2edt/internal/pipe"
	"e2edt/internal/railmgr"
	"e2edt/internal/rftp"
	"e2edt/internal/sim"
	"e2edt/internal/testbed"
	"e2edt/internal/units"
)

// suspectTransfer runs a standalone rftp transfer with gray detection on
// until one rail is under a verdict and still carrying streams, then hands
// the live transfer back — the arbiter input the decay keys off.
func suspectTransfer(t *testing.T) *rftp.Transfer {
	t.Helper()
	p := testbed.NewMotivatingPair()
	prm := rftp.DefaultParams()
	prm.AckTimeout = 50 * sim.Millisecond
	prm.RetryBackoff = 20 * sim.Millisecond
	prm.RetryBackoffMax = 40 * sim.Millisecond
	prm.Rails = railmgr.Policy{
		Enabled:        true,
		ProbeEvery:     20 * sim.Millisecond,
		ProbeTimeout:   5 * sim.Millisecond,
		ProbeBytes:     64,
		FailbackProbes: 2,
		MissedProbes:   2,
		Gray:           true,
	}
	cfg := rftp.Config{Streams: 6, BlockSize: 128 * units.KB, CreditsPerStream: 2}
	tr, err := rftp.Start(p.Links, p.A, cfg, prm, pipe.Zero{}, pipe.Null{}, math.Inf(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Stop)
	p.Eng.RunUntil(0.1)
	p.Links[1].GrayDegrade(0.3)
	p.Eng.RunUntil(1.0)
	if tr.SuspectRailsInUse() == 0 {
		t.Fatal("precondition: no streams on a suspect rail")
	}
	return tr
}

// TestSuspectDecayShiftsStreamBudget: with SuspectDecay set, a job whose
// streams ride a suspect rail cedes stream budget to a clean-rail peer;
// with the decay off the same pair splits evenly.
func TestSuspectDecayShiftsStreamBudget(t *testing.T) {
	tr := suspectTransfer(t)
	jobs := []*Job{
		{Spec: spec("sick", "a", units.GB), rt: tr},
		{Spec: spec("ok", "b", units.GB)},
	}
	perTenant := map[string]int{"a": 1, "b": 1}

	cfg := DefaultConfig()
	cfg.StreamBudget = 8
	cfg.SuspectDecay = 0.25
	s := newSched(t, cfg)
	alloc := s.divideStreams(jobs, perTenant)
	if !(alloc[0] < alloc[1]) {
		t.Fatalf("suspect job not decayed: alloc %v", alloc)
	}
	if alloc[0] < 1 {
		t.Fatalf("decay starved the suspect job entirely: alloc %v", alloc)
	}
	if alloc[0]+alloc[1] != 8 {
		t.Fatalf("budget leaked: alloc %v", alloc)
	}

	cfg.SuspectDecay = 0
	s2 := newSched(t, cfg)
	even := s2.divideStreams(jobs, perTenant)
	if even[0] != even[1] {
		t.Fatalf("decay off should split evenly, got %v", even)
	}
}

// TestSuspectDecayValidation pins the config bounds.
func TestSuspectDecayValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SuspectDecay = 1.5
	if err := cfg.Validate(); err == nil {
		t.Fatal("SuspectDecay > 1 accepted")
	}
	cfg.SuspectDecay = -0.1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative SuspectDecay accepted")
	}
	cfg.SuspectDecay = 0.5
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}
