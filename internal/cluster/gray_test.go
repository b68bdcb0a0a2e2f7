package cluster

import (
	"reflect"
	"strings"
	"testing"

	"e2edt/internal/faults"
	"e2edt/internal/sim"
	"e2edt/internal/trace"
	"e2edt/internal/units"
)

// limpWorkload attaches a uniform inbound stream to every host: nJobs jobs
// of size bytes each, arrivals spaced 0.3s apart, priorities alternating
// 0/1, every dataset replicated on two other hosts. Uniform load is what
// makes the cohort median a meaningful yardstick.
func limpWorkload(c *Cluster, nJobs int, size float64) {
	hosts := c.Hosts()
	c.AddTenants(4)
	for h := 0; h < hosts; h++ {
		c.AddDataset([]int{(h + 1) % hosts, (h + hosts/2) % hosts})
	}
	for k := 0; k < nJobs; k++ {
		for h := 0; h < hosts; h++ {
			c.Submit(sim.Time(float64(k)*0.3), (h+k)%4, h, h, size, k%2)
		}
	}
}

// limpRun builds an 8-host cluster with the given gray config, limps host 3
// to 2% core speed over (1s, 5s), and drains the workload under a trace
// recorder.
func limpRun(t *testing.T, gray bool, probe func(c *Cluster)) (*Cluster, *trace.Recorder) {
	t.Helper()
	eng := sim.NewEngine()
	rec := &trace.Recorder{}
	eng.SetTracer(rec)
	c, err := New(eng, Config{Hosts: 8, Shards: 2, Seed: 9, Gray: gray})
	if err != nil {
		t.Fatal(err)
	}
	limpWorkload(c, 20, 300*float64(units.MB))
	plan := &faults.Plan{}
	plan.LimpWindow(3, 1.0, 4, 0.02)
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	plan.ApplyTo(eng, c)
	if probe != nil {
		probe(c)
	}
	c.Run()
	return c, rec
}

// TestLimpHostSuspectShedRecover is the cluster tentpole scenario: a host
// limps at 2% core speed with heartbeats intact. The binary death detector
// must stay silent, the outlier scorer must suspect the host, the shed
// valve must hold low-priority admissions while the verdict stands, and
// once the limp clears the verdict and the valve must both recover — with
// every job delivered exactly once and the whole timeline bit-replayable.
func TestLimpHostSuspectShedRecover(t *testing.T) {
	probe := func(c *Cluster) {
		c.Eng.At(4.5, func() {
			// Host 3 must be under a verdict; collateral suspects are
			// legitimate (a host fed by the limping replica really does
			// deliver slowly until the source penalty steers away).
			found := false
			for _, h := range c.SuspectHosts() {
				if h == 3 {
					found = true
				}
			}
			if !found {
				t.Errorf("SuspectHosts at 4.5s = %v, want host 3 included", c.SuspectHosts())
			}
			if !c.Shedding() {
				t.Error("shed valve open at 4.5s with a suspect host")
			}
		})
	}
	c, rec1 := limpRun(t, true, probe)

	if c.HostLimps != 1 {
		t.Fatalf("HostLimps = %d, want 1", c.HostLimps)
	}
	// REGRESSION: a limping host is degraded, not dead — the heartbeat
	// detector must never declare it.
	if c.HostFails != 0 || c.DeadDeclared != 0 {
		t.Fatalf("binary detector fired on a limping host: fails=%d declared=%d",
			c.HostFails, c.DeadDeclared)
	}
	if c.HostSuspects == 0 {
		t.Fatal("limping host never suspected")
	}
	at, ok := c.FirstHostSuspectAt()
	if !ok || at <= 1 {
		t.Fatalf("FirstHostSuspectAt = (%v, %v), want after the limp at 1s", at, ok)
	}
	if at-1 > 5 {
		t.Fatalf("detection latency %.2fs exceeds 5s", float64(at-1))
	}
	if c.Shed == 0 {
		t.Fatal("shed valve never held a low-priority job")
	}
	if c.HostClears == 0 {
		t.Fatal("verdict never cleared after the limp lifted")
	}
	if c.Shedding() {
		t.Fatal("shed valve still closed at end of run")
	}
	if c.JobsLost != 0 {
		t.Fatalf("shedding lost %d jobs — the valve must defer, not drop", c.JobsLost)
	}
	if err := c.VerifyExactlyOnce(); err != nil {
		t.Fatal(err)
	}

	// Bit-identical replay: the scorer, valve, and limp injection are all
	// on the virtual clock.
	_, rec2 := limpRun(t, true, nil)
	if len(rec1.Events) == 0 || !reflect.DeepEqual(rec1.Events, rec2.Events) {
		t.Fatalf("gray cluster replay diverged: %d vs %d events",
			len(rec1.Events), len(rec2.Events))
	}
}

// TestLimpClusterGrayDisabledInert: with Gray off the limp still bites
// physically, but nothing is scored, nothing is shed, and the run still
// delivers exactly once — the legacy contract.
func TestLimpClusterGrayDisabledInert(t *testing.T) {
	c, rec := limpRun(t, false, nil)
	if c.HostLimps != 1 {
		t.Fatalf("HostLimps = %d, want 1", c.HostLimps)
	}
	if c.HostSuspects != 0 || c.HostClears != 0 || c.Shed != 0 {
		t.Fatalf("gray counters moved while disabled: suspects=%d clears=%d shed=%d",
			c.HostSuspects, c.HostClears, c.Shed)
	}
	if c.Shedding() {
		t.Fatal("shed valve closed while gray disabled")
	}
	if err := c.VerifyExactlyOnce(); err != nil {
		t.Fatal(err)
	}
	for _, ev := range rec.Events {
		if ev.Subsys == "cluster" && (strings.Contains(ev.Msg, "gray-suspect") || strings.Contains(ev.Msg, "shed valve")) {
			t.Fatalf("gray-off run produced a gray verdict: %+v", ev)
		}
	}
}
