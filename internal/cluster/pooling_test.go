package cluster

import (
	"math"
	"testing"

	"e2edt/internal/sim"
	"e2edt/internal/trace"
	"e2edt/internal/units"
)

// TestApplyWeightEmptyTenantRace is the directed regression for the
// fair-share divide-by-zero: a tenant whose last job completed in the same
// tick its digest/adjust arrives has an empty running flow set, and a job
// mid-requeue can sit in the running list with a nil flow. Neither may
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
	// A job pulled back mid-requeue: in the running set, flow already nil.
	s.running = append(s.running, &job{tenant: 0})
	if s.applyWeight(0) {
		t.Fatal("applyWeight counted a nil-flow job")
	}
	// rebalance over empty and nil-flow tenants must be a clean no-op too.
	s.rebalance([]int{0, 0, 1})

	// Now one real flow: the nil-flow job must not dilute the split.
	f := c.FSim.NewFlow("t0", 1e9)
	s.running = append(s.running, &job{tenant: 0, flow: f})
	s.adjust[0] = 2
	if !s.applyWeight(0) {
		t.Fatal("applyWeight missed a genuine weight change")
	}
	want := c.tenants[0].weight * 2 // n=1: the nil-flow job is not counted
	if f.Weight() != want || math.IsNaN(f.Weight()) {
		t.Fatalf("flow weight = %v, want %v", f.Weight(), want)
	}
}

// runPooled drives a directed single-route workload — one tenant, one
// replica host, one destination on the same leaf, one worker per host — so
// every concurrently admitted job charges the identical resource set.
func runPooled(t *testing.T, noClasses bool) (string, Report, int) {
	t.Helper()
	eng := sim.NewEngine()
	h := trace.NewHasher()
	eng.SetTracer(h)
	c, err := newCluster(eng, Config{Hosts: 4, Shards: 2, Seed: 11}, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.noFlowClasses = noClasses
	c.AddTenants(1)
	d := c.AddDataset([]int{0})
	for i := 0; i < 24; i++ {
		c.Submit(sim.Time(float64(i)*0.001), 0, d, 1, 4*float64(units.MB), 0)
	}
	c.Run()
	return h.Sum(), c.Report(), c.PooledJoins
}

// TestFlowClassPoolingEquivalence: pooling same-route jobs into flow
// classes must not change what the cluster computes — same delivered bytes,
// no losses, near-identical makespan — while actually engaging (the pooled
// run joins existing classes; the unpooled run never does). Both modes must
// stay replay-deterministic.
func TestFlowClassPoolingEquivalence(t *testing.T) {
	sumP1, repP, joins := runPooled(t, false)
	sumP2, _, _ := runPooled(t, false)
	sumU1, repU, joinsOff := runPooled(t, true)
	sumU2, _, _ := runPooled(t, true)
	if sumP1 != sumP2 || sumU1 != sumU2 {
		t.Fatal("pooling mode broke replay determinism")
	}
	if joins == 0 {
		t.Fatal("directed single-route workload never pooled a job")
	}
	if joinsOff != 0 {
		t.Fatalf("unpooled run recorded %d pooled joins", joinsOff)
	}
	if repP.JobsLost != 0 || repU.JobsLost != 0 {
		t.Fatalf("lossless runs lost jobs: %d pooled, %d unpooled",
			repP.JobsLost, repU.JobsLost)
	}
	if repP.DeliveredBytes != repU.DeliveredBytes {
		t.Fatalf("delivered bytes diverged: %.0f pooled vs %.0f unpooled",
			repP.DeliveredBytes, repU.DeliveredBytes)
	}
	if d := math.Abs(repP.VirtualSeconds - repU.VirtualSeconds); d > 0.01*repU.VirtualSeconds {
		t.Fatalf("makespan diverged: %.6fs pooled vs %.6fs unpooled",
			repP.VirtualSeconds, repU.VirtualSeconds)
	}
}
