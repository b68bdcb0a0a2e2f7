package cluster

import (
	"math"
	"testing"

	"e2edt/internal/fluid"
	"e2edt/internal/sim"
	"e2edt/internal/trace"
	"e2edt/internal/units"
)

// TestApplyWeightEmptyTenantRace is the directed regression for the
// fair-share divide-by-zero: a tenant whose last job completed in the same
// tick its digest/adjust arrives has an empty running flow set, and a job
// mid-requeue can sit in the running list with no transfer. Neither may
// panic, divide by zero, or count toward the per-job split.
func TestApplyWeightEmptyTenantRace(t *testing.T) {
	eng := sim.NewEngine()
	c, err := New(eng, Config{Hosts: 4, Shards: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.AddTenants(2)
	s := c.shards[0]

	if s.applyWeight(0) {
		t.Fatal("applyWeight reported a change with no running jobs")
	}
	// A job pulled back mid-requeue: in the running set, transfer already nil.
	s.running = append(s.running, &job{tenant: 0})
	if s.applyWeight(0) {
		t.Fatal("applyWeight counted a job with no transfer")
	}
	// rebalance over empty and transfer-less tenants must be a clean no-op too.
	s.rebalance([]int{0, 0, 1})

	// Now one real flow: the transfer-less job must not dilute the split.
	f := c.FSim.NewFlow("t0", 1e9)
	s.running = append(s.running, &job{tenant: 0, xfer: &fluid.Transfer{Flow: f}})
	s.adjust[0] = 2
	if !s.applyWeight(0) {
		t.Fatal("applyWeight missed a genuine weight change")
	}
	want := c.tenants[0].weight * 2 // n=1: the transfer-less job is not counted
	if f.Weight() != want || math.IsNaN(f.Weight()) {
		t.Fatalf("flow weight = %v, want %v", f.Weight(), want)
	}
}

// runSingleRoute drives a directed single-route workload — one tenant, one
// replica host, one destination on the same leaf, one worker per host — so
// every concurrently admitted job charges the identical resource set. It
// returns the replay digest, the per-job completion counts and the flows
// left in the solver after the run.
func runSingleRoute(t *testing.T) (string, []int, int) {
	t.Helper()
	const jobs = 24
	eng := sim.NewEngine()
	h := trace.NewHasher()
	eng.SetTracer(h)
	c, err := newCluster(eng, Config{Hosts: 4, Shards: 2, Seed: 11}, 1)
	if err != nil {
		t.Fatal(err)
	}
	done := make([]int, jobs)
	c.OnJobDone = func(id int, _ sim.Time) { done[id]++ }
	c.AddTenants(1)
	d := c.AddDataset([]int{0})
	for i := 0; i < jobs; i++ {
		c.Submit(sim.Time(float64(i)*0.001), 0, d, 1, 4*float64(units.MB), 0)
	}
	c.Run()
	return h.Sum(), done, len(c.FSim.Network.Flows())
}

// TestSameRouteJobsRunOnOwnFlows: jobs that charge the identical resource
// set each run on their own flow. Every one completes exactly once, the run
// replays bit for bit, and no flow outlives its job.
func TestSameRouteJobsRunOnOwnFlows(t *testing.T) {
	sum1, done, left := runSingleRoute(t)
	sum2, _, _ := runSingleRoute(t)
	if sum1 != sum2 {
		t.Fatal("same-seed runs hashed differently")
	}
	for id, n := range done {
		if n != 1 {
			t.Fatalf("job %d completed %d times, want 1", id, n)
		}
	}
	if left != 0 {
		t.Fatalf("%d flows left in the solver after Run, want 0", left)
	}
}
