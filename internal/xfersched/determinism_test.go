package xfersched

import (
	"fmt"
	"strings"
	"testing"

	"e2edt/internal/core"
	"e2edt/internal/faults"
	"e2edt/internal/sim"
	"e2edt/internal/units"
)

// fingerprint renders every bit-relevant outcome of a run: per-job start,
// finish and retry counts with exact float bits (%x), plus the aggregate
// report numbers.
func fingerprint(s *Scheduler) string {
	var b strings.Builder
	for _, j := range s.Jobs() {
		fmt.Fprintf(&b, "%s %s %x %x %d %d\n",
			j.Spec.ID, j.State, float64(j.FirstStart), float64(j.Finished),
			j.Retries, j.streams)
	}
	r := s.Report()
	fmt.Fprintf(&b, "agg %x %x %x %d\n",
		r.AggregateGoodput, r.P99Wait, r.MeanSlowdown, r.TotalRetries)
	return b.String()
}

// runTrace executes one full scheduler run over a fresh system, with a
// mid-run link failure to exercise the retry path too.
func runTrace(t *testing.T, tc TraceConfig) string {
	t.Helper()
	opt := core.DefaultOptions()
	opt.DatasetSize = 2 * units.GB
	sys, err := core.NewSystem(opt)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxConcurrent = 3
	s, err := New(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.WithTenantWeights(tc.Tenants)
	s.SubmitTrace(GenerateTrace(tc))
	outage := &faults.Plan{}
	outage.FailWindow(sys.TB.FrontLinks[0], 5, 8*sim.Second)
	s.ApplyFaults(outage)
	if !s.RunToCompletion(1200 * sim.Second) {
		t.Fatal("trace did not finish")
	}
	return fingerprint(s)
}

// TestDeterministicSchedule: the same trace on the same config produces a
// bit-identical schedule — start times, finish times, retries, stream
// allocations and aggregate metrics all match across two independent runs.
func TestDeterministicSchedule(t *testing.T) {
	tc := DefaultTraceConfig()
	tc.Jobs = 10
	tc.JobsPerMinute = 40
	tc.MinBytes = units.GB
	tc.MaxBytes = 5 * units.GB
	a := runTrace(t, tc)
	b := runTrace(t, tc)
	if a != b {
		t.Fatalf("schedules diverged:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
	}
}

// TestTraceGeneratorDeterminism: same seed → same trace; different seed →
// different trace.
func TestTraceGeneratorDeterminism(t *testing.T) {
	tc := DefaultTraceConfig()
	a := GenerateTrace(tc)
	b := GenerateTrace(tc)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	// JobSpec is no longer comparable (object batches carry a slice), so
	// compare the canonical serialization.
	if FormatTrace(a) != FormatTrace(b) {
		t.Fatalf("same seed produced different traces")
	}
	tc.Seed = 2
	c := GenerateTrace(tc)
	if FormatTrace(a) == FormatTrace(c) {
		t.Fatal("different seeds produced identical traces")
	}
}
