package xfersched

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"e2edt/internal/core"
	"e2edt/internal/railmgr"
	"e2edt/internal/rftp"
	"e2edt/internal/sim"
	"e2edt/internal/units"
)

// railSched builds a scheduler whose system runs recovery, with a tight
// RFTP recovery ladder and rail management set in the scheduler's params.
func railSched(t *testing.T, cfg Config) *Scheduler {
	t.Helper()
	opt := core.DefaultOptions()
	opt.DatasetSize = 2 * units.GB
	opt.Recovery = true
	cfg.RFTPParams.AckTimeout = 100 * sim.Millisecond
	cfg.RFTPParams.RetryBackoff = 50 * sim.Millisecond
	cfg.RFTPParams.RetryBackoffMax = 100 * sim.Millisecond
	cfg.RFTPParams.MaxStreamRetries = 24
	cfg.RFTPParams.Rails = railmgr.DefaultPolicy()
	sys, err := core.NewSystem(opt)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestFailoverAbsorbedWithoutRequeue: one rail dies permanently under a
// scheduled job. The transfer migrates its streams in-protocol; the
// scheduler must keep the job admitted (zero retries) and surface the
// migration in its accounting.
func TestFailoverAbsorbedWithoutRequeue(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxConcurrent = 1
	cfg.StreamBudget = 3
	s := railSched(t, cfg)
	j, err := s.Submit(spec("j0", "a", 12*units.GB))
	if err != nil {
		t.Fatal(err)
	}
	s.eng.At(0.2, s.Sys.TB.FrontLinks[1].Fail) // never restored
	if !s.RunToCompletion(60 * sim.Second) {
		t.Fatal("job did not complete after failover")
	}
	if j.State != StateDone {
		t.Fatalf("state %v, want done", j.State)
	}
	if j.Retries != 0 {
		t.Fatalf("scheduler requeued %d times; failover should have been absorbed in-protocol", j.Retries)
	}
	if j.Stats().Migrations < 1 {
		t.Fatalf("migrations = %d, want ≥1", j.Stats().Migrations)
	}
	if math.Abs(j.Moved()-float64(j.Spec.Bytes)) > 1 {
		t.Fatalf("moved %v of %d", j.Moved(), j.Spec.Bytes)
	}
	r := s.Report()
	if r.TotalMigrations != j.Stats().Migrations {
		t.Fatalf("report migrations %d != job %d", r.TotalMigrations, j.Stats().Migrations)
	}
	for _, tbl := range []string{r.SummaryTable().String(), r.TenantTable().String()} {
		if !strings.Contains(tbl, "migr") {
			t.Fatalf("table missing migration column:\n%s", tbl)
		}
	}
}

// TestWatchdogGraceCoversMigration is the regression test for the stall
// race near the budget boundary: a double outage keeps a job's *visible*
// (window-hidden) progress flat for longer than StallAfter+RecoveryBudget
// — the static horizon — while every individual recovery ladder stays
// survivable. The fixed watchdog sizes its grace off the active recovery
// kind (a migration pays probing and re-handshakes that a plain
// retransmission never does) and must not requeue; the old static budget
// declared the job stalled mid-failover and threw away the attempt.
//
// Timeline (virtual seconds), with AckTimeout=0.1, backoff 0.05..0.1 ×24
// (RecoveryBudget=2.45) and StallAfter=0.3 → static horizon 2.75:
//
//	0.30          all three rails die; streams park, kind=failover
//	1.00          rails restored; streams resume ≤1.11 (backoff phase)
//	1.12          rails die again — the 1 GB credit window is not yet
//	              cleared, so no *visible* progress since 0.30
//	3.05+         static horizon crossed mid-outage: old watchdog requeues
//	3.20          rails restored; streams resume, job completes
func TestWatchdogGraceCoversMigration(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxConcurrent = 1
	cfg.StreamBudget = 3
	cfg.CheckEvery = 50 * sim.Millisecond
	cfg.StallAfter = 300 * sim.Millisecond
	cfg.RFTP.BlockSize = 16 * units.MB // 64 credits × 16 MB = 1 GB window
	s := railSched(t, cfg)
	j, err := s.Submit(spec("j0", "a", 24*units.GB))
	if err != nil {
		t.Fatal(err)
	}
	kill := func(at sim.Time) {
		s.eng.At(at, func() {
			for _, l := range s.Sys.TB.FrontLinks {
				l.Fail()
			}
		})
	}
	restore := func(at sim.Time) {
		s.eng.At(at, func() {
			for _, l := range s.Sys.TB.FrontLinks {
				l.Restore()
			}
		})
	}
	kill(0.30)
	restore(1.00)
	kill(1.12)
	restore(3.20)
	if !s.RunToCompletion(120 * sim.Second) {
		t.Fatal("job did not complete")
	}
	if j.State != StateDone {
		t.Fatalf("state %v, want done", j.State)
	}
	if j.Retries != 0 {
		t.Fatalf("watchdog requeued %d times mid-failover; kind-aware grace should have held it back", j.Retries)
	}
	if j.Stats().Migrations < 1 {
		t.Fatalf("migrations = %d, want ≥1 (streams parked on the failover ladder)", j.Stats().Migrations)
	}
	if math.Abs(j.Moved()-float64(j.Spec.Bytes)) > 1 {
		t.Fatalf("moved %v of %d", j.Moved(), j.Spec.Bytes)
	}
}

// TestBatchWindowSurvivesRailKill: an object window runs under recovery
// and rail management, and one of its rails dies mid-window, never to
// return. The window is an rftp session like any other, so its streams
// fail over in-protocol: every object is delivered exactly once and the
// scheduler never requeues the job.
func TestBatchWindowSurvivesRailKill(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxConcurrent = 1
	s := railSched(t, cfg)
	objs := make([]rftp.ObjectSpec, 48)
	for i := range objs {
		objs[i] = rftp.ObjectSpec{Key: fmt.Sprintf("b/obj-%02d", i), Size: 256 * units.MB}
	}
	counts := make([]int, len(objs))
	j, err := s.Submit(JobSpec{
		ID: "window", Tenant: "a", Protocol: ProtoRFTP, Objects: objs,
		OnObject: func(i int, _ sim.Time) { counts[i]++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	s.eng.At(0.2, s.Sys.TB.FrontLinks[1].Fail) // never restored
	if !s.RunToCompletion(60 * sim.Second) {
		t.Fatal("window did not complete after the rail kill")
	}
	if j.State != StateDone {
		t.Fatalf("state %v, want done", j.State)
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("object %d delivered %d times", i, c)
		}
	}
	if j.Retries != 0 {
		t.Fatalf("scheduler requeued the window %d times; the failover should have been absorbed in-protocol", j.Retries)
	}
	if j.Stats().Migrations < 1 {
		t.Fatalf("migrations = %d, want ≥1", j.Stats().Migrations)
	}
}
