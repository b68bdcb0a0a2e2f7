package fluid

import (
	"math"
	"testing"

	"e2edt/internal/sim"
)

func newTestSim() (*sim.Engine, *Sim) {
	eng := sim.NewEngine()
	return eng, NewSim(eng)
}

func TestTransferCompletesAtExpectedTime(t *testing.T) {
	eng, s := newTestSim()
	link := s.AddResource("link", 100) // 100 B/s
	f := s.NewFlow("f", math.Inf(1))
	f.Use(link, 1)
	var doneAt sim.Time
	s.Start(&Transfer{Flow: f, Remaining: 500, OnComplete: func(now sim.Time) { doneAt = now }})
	eng.Run()
	if !almostEqual(float64(doneAt), 5, 1e-9) {
		t.Fatalf("completed at %v, want 5s (500B @ 100B/s)", doneAt)
	}
}

func TestTwoTransfersSerializeFairly(t *testing.T) {
	// Two 100-byte transfers on a 100 B/s link: each runs at 50 B/s until
	// both complete at t=2.
	eng, s := newTestSim()
	link := s.AddResource("link", 100)
	var times []sim.Time
	for i := 0; i < 2; i++ {
		f := s.NewFlow("f", math.Inf(1))
		f.Use(link, 1)
		s.Start(&Transfer{Flow: f, Remaining: 100, OnComplete: func(now sim.Time) {
			times = append(times, now)
		}})
	}
	eng.Run()
	if len(times) != 2 {
		t.Fatalf("completed %d transfers, want 2", len(times))
	}
	for _, tm := range times {
		if !almostEqual(float64(tm), 2, 1e-9) {
			t.Fatalf("completed at %v, want 2s", tm)
		}
	}
}

func TestLateArrivalSpeedsUpAfterFirstCompletes(t *testing.T) {
	// f1: 100B starting at t=0 on 100B/s link. f2: 300B starting at t=0.
	// Shared until f1 done. f1 at 50B/s → done at t=2 (100B). f2 has 200B
	// left at t=2, then runs at 100B/s → done at t=4.
	eng, s := newTestSim()
	link := s.AddResource("link", 100)
	f1 := s.NewFlow("f1", math.Inf(1))
	f1.Use(link, 1)
	f2 := s.NewFlow("f2", math.Inf(1))
	f2.Use(link, 1)
	var t1, t2 sim.Time
	s.Start(&Transfer{Flow: f1, Remaining: 100, OnComplete: func(now sim.Time) { t1 = now }})
	s.Start(&Transfer{Flow: f2, Remaining: 300, OnComplete: func(now sim.Time) { t2 = now }})
	eng.Run()
	if !almostEqual(float64(t1), 2, 1e-9) {
		t.Fatalf("f1 done at %v, want 2", t1)
	}
	if !almostEqual(float64(t2), 4, 1e-9) {
		t.Fatalf("f2 done at %v, want 4", t2)
	}
}

func TestOnCompleteCanChainTransfers(t *testing.T) {
	eng, s := newTestSim()
	link := s.AddResource("link", 10)
	var finished []sim.Time
	var startNext func(n int) *Transfer
	startNext = func(n int) *Transfer {
		f := s.NewFlow("chain", math.Inf(1))
		f.Use(link, 1)
		return &Transfer{Flow: f, Remaining: 10, OnComplete: func(now sim.Time) {
			finished = append(finished, now)
			if n < 3 {
				s.Start(startNext(n + 1))
			}
		}}
	}
	s.Start(startNext(1))
	eng.Run()
	if len(finished) != 3 {
		t.Fatalf("chained %d completions, want 3", len(finished))
	}
	for i, tm := range finished {
		if !almostEqual(float64(tm), float64(i+1), 1e-9) {
			t.Fatalf("completion %d at %v, want %d", i, tm, i+1)
		}
	}
}

func TestOpenEndedTransferNeverCompletes(t *testing.T) {
	eng, s := newTestSim()
	link := s.AddResource("link", 100)
	f := s.NewFlow("stream", math.Inf(1))
	f.Use(link, 1)
	tr := &Transfer{Flow: f, Remaining: math.Inf(1)}
	s.Start(tr)
	eng.RunUntil(10)
	s.Sync()
	if !tr.Active() {
		t.Fatal("open-ended transfer should stay active")
	}
	if !almostEqual(tr.Transferred(), 1000, 1e-9) {
		t.Fatalf("transferred %v, want 1000 (100B/s × 10s)", tr.Transferred())
	}
}

// TestAccountReads: an account reads coeff × units moved by every transfer
// charging it — at completion, after Cancel, and mid-flight (folded and
// lazy parts alike) — and an unaccounted charge on the same resource adds
// nothing to it.
func TestAccountReads(t *testing.T) {
	for _, c := range []struct {
		name   string
		size   float64 // transfer size; +Inf for open-ended
		cancel bool    // cancel at t=5
		readAt sim.Time
		want   float64 // units moved by readAt
	}{
		{name: "completion", size: 1000, readAt: 20, want: 1000},
		{name: "cancel", size: 1000, cancel: true, readAt: 20, want: 500},
		{name: "mid-flight", size: math.Inf(1), readAt: 5, want: 500},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng, s := newTestSim()
			link := s.AddResource("link", 100) // the bottleneck: 100 units/s
			cpu := s.AddResource("cpu", 1)
			var net, sys, unused Account
			f := s.NewFlow("f", math.Inf(1))
			f.UseTagged(link, 1, &net)
			f.UseTagged(cpu, 0.001, &sys)
			f.Use(cpu, 0.002) // unaccounted: shapes the rate, charges nobody
			tr := &Transfer{Flow: f, Remaining: c.size}
			s.Start(tr)
			if c.cancel {
				eng.Schedule(5, func() { s.Cancel(tr) })
			}
			eng.RunUntil(c.readAt)
			s.Sync()
			if got := tr.Transferred(); !almostEqual(got, c.want, 1e-9) {
				t.Fatalf("transferred %v, want %v", got, c.want)
			}
			if got := s.Used(&net); !almostEqual(got, c.want, 1e-9) {
				t.Fatalf("net account = %v, want %v", got, c.want)
			}
			if got := s.Used(&sys); !almostEqual(got, 0.001*c.want, 1e-9) {
				t.Fatalf("sys account = %v, want %v (the unaccounted cpu charge must not reach it)", got, 0.001*c.want)
			}
			if got := s.Used(&unused); got != 0 {
				t.Fatalf("an account no Use names reads %v", got)
			}
			if tr.Active() && net.folded != 0 {
				t.Fatalf("an active transfer folded %v into its account", net.folded)
			}
		})
	}
}

// TestRemoveActiveClearsTailSlots: completing and cancelling transfers from
// the middle of the active list leaves no finished transfer in the list's
// spare capacity, where it (and its OnComplete closure) would stay
// reachable.
func TestRemoveActiveClearsTailSlots(t *testing.T) {
	eng, s := newTestSim()
	link := s.AddResource("link", 100)
	var trs []*Transfer
	for _, size := range []float64{math.Inf(1), 10, math.Inf(1), math.Inf(1), math.Inf(1)} {
		f := s.NewFlow("f", math.Inf(1))
		f.Use(link, 1)
		tr := &Transfer{Flow: f, Remaining: size}
		s.Start(tr)
		trs = append(trs, tr)
	}
	eng.RunUntil(1) // trs[1] completes
	s.Cancel(trs[3])
	if trs[1].Active() || trs[3].Active() || s.ActiveTransfers() != 3 {
		t.Fatalf("%d active, want 3 after one completion and one cancel", s.ActiveTransfers())
	}
	for i, tr := range s.active[len(s.active):cap(s.active)] {
		if tr != nil {
			t.Fatalf("slot %d past the active list still holds %s", len(s.active)+i, tr.Flow.Name)
		}
	}
}

func TestSetDemandMidFlight(t *testing.T) {
	eng, s := newTestSim()
	link := s.AddResource("link", 100)
	f := s.NewFlow("f", math.Inf(1))
	f.Use(link, 1)
	tr := &Transfer{Flow: f, Remaining: math.Inf(1)}
	s.Start(tr)
	eng.RunUntil(1) // 100 bytes moved
	s.SetDemand(f, 10)
	eng.RunUntil(2) // 10 more bytes
	s.Sync()
	if !almostEqual(tr.Transferred(), 110, 1e-9) {
		t.Fatalf("transferred %v, want 110", tr.Transferred())
	}
}

func TestCancelTransfer(t *testing.T) {
	eng, s := newTestSim()
	link := s.AddResource("link", 100)
	f1 := s.NewFlow("f1", math.Inf(1))
	f1.Use(link, 1)
	f2 := s.NewFlow("f2", math.Inf(1))
	f2.Use(link, 1)
	tr1 := &Transfer{Flow: f1, Remaining: math.Inf(1)}
	completed := false
	tr2 := &Transfer{Flow: f2, Remaining: 150, OnComplete: func(sim.Time) { completed = true }}
	s.Start(tr1)
	s.Start(tr2)
	eng.RunUntil(1) // each at 50 B/s; tr2 moved 50, 100 left
	s.Cancel(tr1)
	eng.Run()
	if !completed {
		t.Fatal("tr2 did not complete")
	}
	// After cancel, tr2 runs at 100 B/s: 100 bytes in 1s → done at t=2.
	if !almostEqual(float64(tr2.Finished()), 2, 1e-9) {
		t.Fatalf("tr2 finished at %v, want 2", tr2.Finished())
	}
	if tr1.Active() {
		t.Fatal("cancelled transfer still active")
	}
	// Cancelling twice is a no-op.
	s.Cancel(tr1)
}

func TestStartTwicePanics(t *testing.T) {
	eng, s := newTestSim()
	_ = eng
	link := s.AddResource("link", 100)
	f := s.NewFlow("f", math.Inf(1))
	f.Use(link, 1)
	tr := &Transfer{Flow: f, Remaining: math.Inf(1)}
	s.Start(tr)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic starting transfer twice")
		}
	}()
	s.Start(tr)
}

func TestStalledTransferResumesOnCapacity(t *testing.T) {
	eng, s := newTestSim()
	link := s.AddResource("link", 100)
	blocker := s.NewFlow("blocker", math.Inf(1))
	blocker.Use(link, 1)
	blocked := s.NewFlow("blocked", 0) // zero demand: stalled
	blocked.Use(link, 1)
	trB := &Transfer{Flow: blocked, Remaining: 100}
	s.Start(&Transfer{Flow: blocker, Remaining: math.Inf(1)})
	s.Start(trB)
	eng.RunUntil(1)
	if trB.Transferred() != 0 {
		t.Fatalf("stalled transfer moved %v bytes", trB.Transferred())
	}
	s.SetDemand(blocked, math.Inf(1))
	eng.RunUntil(4)
	s.Sync()
	// From t=1 to t=4 both flows share: blocked gets 50 B/s → 150 bytes >
	// 100 needed; it completes at t=3.
	if trB.Active() {
		t.Fatal("transfer should have completed after demand raised")
	}
	if !almostEqual(float64(trB.Finished()), 3, 1e-9) {
		t.Fatalf("finished at %v, want 3", trB.Finished())
	}
}

func TestManySmallTransfersConserveBytes(t *testing.T) {
	eng, s := newTestSim()
	link := s.AddResource("link", 1000)
	total := 0.0
	var net Account
	const n = 50
	for i := 0; i < n; i++ {
		f := s.NewFlow("f", math.Inf(1))
		f.UseTagged(link, 1, &net)
		size := float64(10 * (i + 1))
		total += size
		s.Start(&Transfer{Flow: f, Remaining: size})
	}
	eng.Run()
	if got := s.Used(&net); !almostEqual(got, total, 1e-6) {
		t.Fatalf("accounted bytes %v, want %v", got, total)
	}
}
