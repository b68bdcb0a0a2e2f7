package xfersched

import (
	"math"
	"testing"

	"e2edt/internal/core"
	"e2edt/internal/faults"
	"e2edt/internal/rftp"
	"e2edt/internal/sim"
	"e2edt/internal/units"
)

// newSched builds a scheduler over a fresh small-dataset system.
func newSched(t *testing.T, cfg Config) *Scheduler {
	t.Helper()
	opt := core.DefaultOptions()
	opt.DatasetSize = 2 * units.GB
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

func spec(id, tenant string, bytes int64) JobSpec {
	return JobSpec{ID: id, Tenant: tenant, Protocol: ProtoRFTP, Dir: core.Forward, Bytes: bytes}
}

func TestSingleJobCompletes(t *testing.T) {
	s := newSched(t, DefaultConfig())
	j, err := s.Submit(spec("j0", "a", 8*units.GB))
	if err != nil {
		t.Fatal(err)
	}
	if !s.RunToCompletion(60 * sim.Second) {
		t.Fatal("job did not complete")
	}
	if j.State != StateDone {
		t.Fatalf("state %v, want done", j.State)
	}
	if j.Wait() != 0 {
		t.Fatalf("uncontended job waited %v", j.Wait())
	}
	if j.Moved() != float64(j.Spec.Bytes) {
		t.Fatalf("moved %v of %v", j.Moved(), j.Spec.Bytes)
	}
	r := s.Report()
	if r.Completed != 1 || r.Lost != 0 || r.TotalRetries != 0 {
		t.Fatalf("report %+v", r)
	}
	if r.AggregateGoodput <= 0 {
		t.Fatal("goodput unset")
	}
}

func TestSubmitValidation(t *testing.T) {
	s := newSched(t, DefaultConfig())
	if _, err := s.Submit(JobSpec{Tenant: "a", Bytes: 1}); err == nil {
		t.Fatal("missing ID accepted")
	}
	if _, err := s.Submit(spec("jneg", "a", -1)); err == nil {
		t.Fatal("negative bytes accepted")
	}
	// Zero bytes is legal: an empty object's job completes at admission.
	jz, err := s.Submit(spec("jzero", "a", 0))
	if err != nil {
		t.Fatal(err)
	}
	if jz.State != StateDone {
		t.Fatalf("zero-byte job state %v, want done", jz.State)
	}
	if _, err := s.Submit(JobSpec{ID: "jbatch", Tenant: "a", Protocol: ProtoGridFTP,
		Objects: []rftp.ObjectSpec{{Key: "b/k", Size: 1}}}); err == nil {
		t.Fatal("GridFTP batch accepted")
	}
	if _, err := s.Submit(spec("j0", "a", units.GB)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(spec("j0", "a", units.GB)); err == nil {
		t.Fatal("duplicate ID accepted")
	}
}

// TestAdmissionCapHonored: with MaxConcurrent=2, six simultaneous jobs
// never run more than two at a time, later jobs wait, and all finish.
func TestAdmissionCapHonored(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxConcurrent = 2
	s := newSched(t, cfg)
	for i := 0; i < 6; i++ {
		id := string(rune('a' + i))
		if _, err := s.Submit(spec(id, "tenant", 4*units.GB)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Running() != 2 {
		t.Fatalf("running %d at submit, want 2", s.Running())
	}
	for !s.AllDone() && s.Sys.Engine().Now() < 300 {
		if s.Running() > 2 {
			t.Fatalf("admission cap breached: %d running", s.Running())
		}
		s.Sys.Engine().RunFor(100 * sim.Millisecond)
	}
	if !s.AllDone() {
		t.Fatal("jobs did not finish")
	}
	r := s.Report()
	if r.Completed != 6 || r.Lost != 0 {
		t.Fatalf("completed %d, lost %d", r.Completed, r.Lost)
	}
	if r.P99Wait <= 0 {
		t.Fatal("queued jobs should have waited")
	}
	if r.MaxQueueLen < 4 {
		t.Fatalf("max queue %d, want ≥4", r.MaxQueueLen)
	}
}

// TestPriorityOrdersQueue: with one slot busy, a high-priority late
// arrival is admitted before an earlier low-priority one.
func TestPriorityOrdersQueue(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxConcurrent = 1
	s := newSched(t, cfg)
	if _, err := s.Submit(spec("hog", "a", 8*units.GB)); err != nil {
		t.Fatal(err)
	}
	low := spec("low", "a", units.GB)
	high := spec("high", "a", units.GB)
	high.Priority = 5
	s.SubmitAt(0.1, low)
	s.SubmitAt(0.2, high)
	if !s.RunToCompletion(120 * sim.Second) {
		t.Fatal("jobs did not finish")
	}
	var lowJ, highJ *Job
	for _, j := range s.Jobs() {
		switch j.Spec.ID {
		case "low":
			lowJ = j
		case "high":
			highJ = j
		}
	}
	if highJ.FirstStart >= lowJ.FirstStart {
		t.Fatalf("high started %v, low %v: priority ignored", highJ.FirstStart, lowJ.FirstStart)
	}
}

// TestFairShareArbitration: a lone job holds the whole stream budget; when
// a second tenant's job arrives the budget is re-divided by weight via
// checkpoint-restart, and on the heavier tenant's exit the survivor gets
// the streams back.
func TestFairShareArbitration(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxConcurrent = 2
	cfg.StreamBudget = 4
	s := newSched(t, cfg)
	s.SetTenant("heavy", 3)
	s.SetTenant("light", 1)

	j1, err := s.Submit(spec("h0", "heavy", 30*units.GB))
	if err != nil {
		t.Fatal(err)
	}
	if j1.streams != 4 {
		t.Fatalf("lone job has %d streams, want the whole budget 4", j1.streams)
	}
	var j2 *Job
	s.Sys.Engine().At(1, func() {
		var err error
		j2, err = s.Submit(spec("l0", "light", 30*units.GB))
		if err != nil {
			t.Fatal(err)
		}
	})
	s.Sys.Engine().RunUntil(1.5)
	if j1.streams != 3 || j2.streams != 1 {
		t.Fatalf("split %d/%d, want 3/1 by tenant weight", j1.streams, j2.streams)
	}
	// Rebalancing checkpointed j1, it did not retry it.
	if j1.Retries != 0 {
		t.Fatalf("rebalance counted as retry: %d", j1.Retries)
	}
	if !s.RunToCompletion(300 * sim.Second) {
		t.Fatal("jobs did not finish")
	}
	// The 3-weight tenant finishes the same-size job first.
	if j1.Finished >= j2.Finished {
		t.Fatalf("heavy finished %v, light %v: weights had no effect", j1.Finished, j2.Finished)
	}
	// After h0 exits, l0 should have been topped back up to 4 streams.
	if j2.streams != 4 {
		t.Fatalf("survivor held %d streams, want 4", j2.streams)
	}
}

// TestLinkFailureRetry is the graceful-degradation acceptance test: a
// front-link outage stalls single-stream jobs (their one stream rides
// link 0), the watchdog requeues them with backoff, and after the link
// returns every job completes — retries observed, nothing lost.
func TestLinkFailureRetry(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxConcurrent = 2
	cfg.StreamBudget = 2 // one stream per running job → both on link 0
	s := newSched(t, cfg)
	for i := 0; i < 4; i++ {
		id := string(rune('a' + i))
		if _, err := s.Submit(spec(id, "tenant", 6*units.GB)); err != nil {
			t.Fatal(err)
		}
	}
	link := s.Sys.TB.FrontLinks[0]
	outage := &faults.Plan{}
	outage.FailWindow(link, 2, 10*sim.Second)
	s.ApplyFaults(outage)
	if !s.RunToCompletion(600 * sim.Second) {
		t.Fatal("jobs did not finish after link restore")
	}
	r := s.Report()
	if r.Lost != 0 {
		t.Fatalf("%d jobs lost", r.Lost)
	}
	if r.Completed != 4 {
		t.Fatalf("completed %d of 4", r.Completed)
	}
	if r.TotalRetries == 0 {
		t.Fatal("outage produced no retries: watchdog dead")
	}
	for _, j := range s.Jobs() {
		if got := j.Moved(); math.Abs(got-float64(j.Spec.Bytes)) > 1 {
			t.Fatalf("job %s moved %v of %d", j.Spec.ID, got, j.Spec.Bytes)
		}
	}
}

// TestJobLostAfterMaxAttempts: a permanently dead link exhausts the retry
// budget and the job lands in StateLost with its files freed.
func TestJobLostAfterMaxAttempts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxConcurrent = 1
	cfg.StreamBudget = 1
	s := newSched(t, cfg)
	for _, l := range s.Sys.TB.FrontLinks {
		l.Fail()
	}
	freeBefore := s.Sys.A.FS.Free()
	j, err := s.Submit(spec("doomed", "a", units.GB))
	if err != nil {
		t.Fatal(err)
	}
	if s.RunToCompletion(120 * sim.Second) {
		if j.State != StateLost {
			t.Fatalf("state %v, want lost", j.State)
		}
	} else {
		t.Fatal("scheduler never gave up")
	}
	if j.Retries != maxAttempts {
		t.Fatalf("retries %d, want maxAttempts=%d", j.Retries, maxAttempts)
	}
	if got := s.Sys.A.FS.Free(); got != freeBefore {
		t.Fatalf("lost job leaked SAN space: free %d, want %d", got, freeBefore)
	}
	if r := s.Report(); r.Lost != 1 || r.Completed != 0 {
		t.Fatalf("report %+v", r)
	}
}

// TestMixedProtocolTrace runs a generated trace with GridFTP jobs in the
// mix, both directions, and checks the report adds up.
func TestMixedProtocolTrace(t *testing.T) {
	tc := DefaultTraceConfig()
	tc.Jobs = 12
	tc.JobsPerMinute = 60
	tc.GridFTPFraction = 0.3
	tc.MinBytes = units.GB
	tc.MaxBytes = 4 * units.GB
	trace := GenerateTrace(tc)
	if len(trace) != 12 {
		t.Fatalf("trace length %d", len(trace))
	}
	s := newSched(t, DefaultConfig()).WithTenantWeights(tc.Tenants)
	s.SubmitTrace(trace)
	if !s.RunToCompletion(600 * sim.Second) {
		t.Fatal("trace did not finish")
	}
	r := s.Report()
	if r.Completed != 12 || r.Lost != 0 {
		t.Fatalf("completed %d lost %d", r.Completed, r.Lost)
	}
	sawGrid, sawRev := false, false
	for _, j := range s.Jobs() {
		if j.Spec.Protocol == ProtoGridFTP {
			sawGrid = true
		}
		if j.Spec.Dir == core.Reverse {
			sawRev = true
		}
	}
	if !sawGrid || !sawRev {
		t.Fatalf("trace mix missing variety: gridftp=%v reverse=%v", sawGrid, sawRev)
	}
	// Tables render without panicking and carry every tenant.
	if got := len(r.Tenants); got != len(tc.Tenants) {
		t.Fatalf("tenant stats %d, want %d", got, len(tc.Tenants))
	}
	for _, tbl := range []interface{ String() string }{r.TenantTable(), r.SummaryTable(), s.JobTable()} {
		if tbl.String() == "" {
			t.Fatal("empty table")
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.MaxConcurrent = 0 },
		func(c *Config) { c.CheckEvery = 0 },
		func(c *Config) { c.StallAfter = c.CheckEvery / 2 },
	}
	for i, mut := range bad {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}
