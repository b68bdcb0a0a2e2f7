package xfersched

import (
	"fmt"
	"testing"

	"e2edt/internal/core"
	"e2edt/internal/fabric"
	"e2edt/internal/railmgr"
	"e2edt/internal/rftp"
	"e2edt/internal/sim"
	"e2edt/internal/units"
)

// smallJobSystem builds a system + scheduler tuned for sub-millisecond
// object jobs: the watchdog runs fast and StallAfter is squeezed to its
// legal minimum, so only the MinStallGrace floor keeps handshaking jobs
// from being declared stalled.
func smallJobSystem(t *testing.T, mut func(*Config)) *Scheduler {
	t.Helper()
	opt := core.DefaultOptions()
	opt.DatasetSize = 2 * units.GB
	sys, err := core.NewSystem(opt)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxConcurrent = 8
	cfg.CheckEvery = 200 * sim.Microsecond
	cfg.StallAfter = 200 * sim.Microsecond
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestZeroByteBatchJob: a batch job made entirely of zero-length objects
// runs the full admission → handshake → delimiter path and completes with
// every OnObject callback fired exactly once.
func TestZeroByteBatchJob(t *testing.T) {
	s := smallJobSystem(t, nil)
	objs := make([]rftp.ObjectSpec, 16)
	for i := range objs {
		objs[i] = rftp.ObjectSpec{Key: fmt.Sprintf("m/lock-%02d", i), Size: 0}
	}
	counts := make([]int, len(objs))
	j, err := s.Submit(JobSpec{
		ID: "zero-batch", Tenant: "t", Protocol: ProtoRFTP,
		Objects:  objs,
		OnObject: func(i int, now sim.Time) { counts[i]++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !s.RunToCompletion(30 * sim.Second) {
		t.Fatal("zero-byte batch did not finish")
	}
	if j.State != StateDone {
		t.Fatalf("state = %v, want done", j.State)
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("object %d delivered %d times", i, c)
		}
	}
	if j.Retries != 0 {
		t.Fatalf("zero-byte batch retried %d times", j.Retries)
	}
}

// TestTinyJobFloodNoSpuriousRetries is the watchdog grace-floor gate:
// 10,000 tiny jobs under a 200 µs StallAfter — far below the ~330 µs
// session handshake — must all complete with zero retries, because the
// MinStallGrace floor grants every attempt at least its setup time.
// Without the floor, the watchdog would requeue every job mid-handshake
// forever.
func TestTinyJobFloodNoSpuriousRetries(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-job flood")
	}
	s := smallJobSystem(t, nil)
	const n = 10000
	for i := 0; i < n; i++ {
		// 2k jobs/second over five virtual seconds, tenants round-robin.
		at := sim.Time(sim.Duration(i) * 500 * sim.Microsecond)
		s.SubmitAt(at, JobSpec{
			ID:       fmt.Sprintf("tiny-%05d", i),
			Tenant:   fmt.Sprintf("t%d", i%4),
			Protocol: ProtoRFTP,
			Bytes:    24 << 10,
			Files:    1,
		})
	}
	if !s.RunToCompletion(120 * sim.Second) {
		t.Fatal("flood did not drain")
	}
	done := 0
	for _, j := range s.Jobs() {
		if j.State == StateDone {
			done++
		}
	}
	if done != n {
		t.Fatalf("done %d of %d", done, n)
	}
	if r := s.Report(); r.TotalRetries != 0 {
		t.Fatalf("%d spurious retries under the grace floor", r.TotalRetries)
	}
}

// TestExplicitGraceFloor: a caller-set MinStallGrace overrides the
// automatic floor and is honored per attempt.
func TestExplicitGraceFloor(t *testing.T) {
	s := smallJobSystem(t, func(c *Config) { c.MinStallGrace = 50 * sim.Millisecond })
	j, err := s.Submit(JobSpec{ID: "j", Tenant: "t", Protocol: ProtoRFTP, Bytes: units.MB, Files: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !s.RunToCompletion(30 * sim.Second) {
		t.Fatal("job did not finish")
	}
	if j.State != StateDone || j.Retries != 0 {
		t.Fatalf("state=%v retries=%d", j.State, j.Retries)
	}
	if s.minGrace != 50*sim.Millisecond {
		t.Fatalf("minGrace = %v, want 50ms", s.minGrace)
	}
	// Negative floors are rejected.
	cfg := DefaultConfig()
	cfg.MinStallGrace = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative MinStallGrace accepted")
	}
}

// TestTinyJobsLeaveNothingBehind: a finished job leaves nothing registered.
// After 50 and after 200 tiny jobs the fluid network holds the same
// resources and the links the same watchers, in the default single-link
// mode and with rail management on (whose per-session manager watches every
// rail), so a long flood's footprint does not grow with the job count.
func TestTinyJobsLeaveNothingBehind(t *testing.T) {
	leftovers := func(t *testing.T, opt core.Options, n int) (resources, watchers int) {
		t.Helper()
		opt.DatasetSize = 2 * units.GB
		sys, err := core.NewSystem(opt)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.MaxConcurrent = 8
		s, err := New(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for i := 0; i < n; i++ {
			s.SubmitAt(sim.Time(sim.Duration(i)*500*sim.Microsecond), JobSpec{
				ID: fmt.Sprintf("tiny-%03d", i), Tenant: fmt.Sprintf("t%d", i%4),
				Protocol: ProtoRFTP, Bytes: 24 << 10, Files: 1,
			})
		}
		if !s.RunToCompletion(60 * sim.Second) {
			t.Fatalf("%d-job flood did not drain", n)
		}
		for _, j := range s.Jobs() {
			if j.State != StateDone {
				t.Fatalf("job %s ended %v", j.Spec.ID, j.State)
			}
		}
		tb := sys.TB
		for _, links := range [][]*fabric.Link{tb.FrontLinks, tb.SrcSAN, tb.DstSAN} {
			for _, l := range links {
				watchers += l.Watchers()
			}
		}
		return len(tb.Sim.Network.Resources()), watchers
	}
	rails := core.DefaultOptions()
	rails.Recovery = true
	rails.Rails = railmgr.Policy{Enabled: true}
	for _, mode := range []struct {
		name string
		opt  core.Options
	}{{"single-link", core.DefaultOptions()}, {"rails", rails}} {
		t.Run(mode.name, func(t *testing.T) {
			r50, w50 := leftovers(t, mode.opt, 50)
			r200, w200 := leftovers(t, mode.opt, 200)
			if r50 != r200 || w50 != w200 {
				t.Fatalf("after 50 jobs %d resources and %d watchers, after 200 %d and %d", r50, w50, r200, w200)
			}
		})
	}
}
