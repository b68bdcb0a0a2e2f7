package fluid_test

import (
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"testing"

	"e2edt/internal/cluster"
	"e2edt/internal/core"
	"e2edt/internal/experiments"
	"e2edt/internal/faults"
	"e2edt/internal/fluid"
	"e2edt/internal/sim"
	"e2edt/internal/units"
	"e2edt/internal/xfersched"
)

// The solver oracle: whole runs replayed with every Resolve forced through
// the from-scratch Solve must match the shipped incremental solver (skips
// and partial refills) bit for bit. This is what lets
// the incremental paths claim zero behaviour change.

// withFullSolve runs fn with the reference-solve hook on.
func withFullSolve(fn func()) {
	defer fluid.SetAlwaysFullSolve(true)()
	fn()
}

// TestFullSolveHookIsLive guards the oracle against vacuity: with the hook
// on, every Resolve is a full solve, even on an unchanged network.
func TestFullSolveHookIsLive(t *testing.T) {
	withFullSolve(func() {
		n := fluid.NewNetwork()
		f := n.NewFlow("f", math.Inf(1))
		f.Use(n.AddResource("link", 100), 1)
		for i := 0; i < 3; i++ {
			n.Resolve()
		}
		if st := n.Stats(); st.FullSolves != 3 || st.Skips != 0 {
			t.Fatalf("3 Resolves under the hook gave %+v, want 3 full solves", st)
		}
		if f.Rate() != 100 {
			t.Fatalf("rate = %v, want 100", f.Rate())
		}
	})
}

// schedulerFingerprint runs a seeded multi-tenant trace with a mid-run link
// failure (so the retry path runs too) and renders every bit-relevant
// outcome: per-job state, retries and exact float bits of the start and
// finish times, plus the aggregate report numbers.
func schedulerFingerprint(t *testing.T) string {
	t.Helper()
	opt := core.DefaultOptions()
	opt.DatasetSize = 2 * units.GB
	sys, err := core.NewSystem(opt)
	if err != nil {
		t.Fatal(err)
	}
	cfg := xfersched.DefaultConfig()
	cfg.MaxConcurrent = 3
	s, err := xfersched.New(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tc := xfersched.DefaultTraceConfig()
	tc.Jobs = 10
	tc.JobsPerMinute = 40
	tc.MinBytes = units.GB
	tc.MaxBytes = 5 * units.GB
	s.WithTenantWeights(tc.Tenants)
	s.SubmitTrace(xfersched.GenerateTrace(tc))
	outage := &faults.Plan{}
	outage.FailWindow(sys.TB.FrontLinks[0], 5, 8*sim.Second)
	s.ApplyFaults(outage)
	if !s.RunToCompletion(1200 * sim.Second) {
		t.Fatal("trace did not finish")
	}
	var b strings.Builder
	for _, j := range s.Jobs() {
		fmt.Fprintf(&b, "%s %s %x %x %d\n", j.Spec.ID, j.State,
			float64(j.FirstStart), float64(j.Finished), j.Retries)
	}
	r := s.Report()
	fmt.Fprintf(&b, "agg %d %d %x %x %x %x\n", r.Completed, r.TotalRetries,
		r.AggregateGoodput, r.P99Wait, r.MeanSlowdown, r.Makespan)
	return b.String()
}

func TestOracleSchedulerTrace(t *testing.T) {
	inc := schedulerFingerprint(t)
	var ref string
	withFullSolve(func() { ref = schedulerFingerprint(t) })
	if inc != ref {
		t.Fatalf("incremental solver diverged from the reference solve:\n--- incremental ---\n%s--- reference ---\n%s",
			inc, ref)
	}
}

// TestOracleExperiments replays S1, S2 and one 100-host S5 point with the
// hook off and on; the rendered outputs (S1, S2) and the streaming trace
// digest (S5) must be identical.
func TestOracleExperiments(t *testing.T) {
	outputSHA := func(fn func() experiments.Result) string {
		res := fn()
		return fmt.Sprintf("%x", sha256.Sum256([]byte(res.String()+res.RenderChart())))
	}
	s5 := experiments.ClusterRunSpec{
		Config:  cluster.Config{Hosts: 100, Shards: 4, DropPct: 5, Seed: 42},
		Tenants: 200, Jobs: 1000,
	}
	for _, c := range []struct {
		name string
		run  func() string
	}{
		{"S1", func() string { return outputSHA(experiments.SchedulerSaturation) }},
		{"S2", func() string { return outputSHA(experiments.ChaosRecovery) }},
		{"S5-100h", func() string { return experiments.RunClusterPoint(s5).TraceSHA }},
	} {
		t.Run(c.name, func(t *testing.T) {
			inc := c.run()
			var ref string
			withFullSolve(func() { ref = c.run() })
			if inc != ref {
				t.Fatalf("incremental %s != reference %s", inc, ref)
			}
		})
	}
}
