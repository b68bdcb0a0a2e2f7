package cluster

import (
	"fmt"
	"testing"

	"e2edt/internal/faults"
	"e2edt/internal/sim"
	"e2edt/internal/trace"
	"e2edt/internal/units"
)

// --- lease/term state machine ---------------------------------------------

// TestLeaseTermStateMachine pins the authority acceptance rule on a shard
// that never runs: higher terms win, equal terms renew the believed leader
// or defer to a lower id, and everything else is rejected and counted.
func TestLeaseTermStateMachine(t *testing.T) {
	eng := sim.NewEngine()
	c, err := New(eng, Config{Hosts: 4, Shards: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.AddTenants(4)
	s1 := c.shards[1]

	// Renewal from the believed leader.
	s1.onLease(1, 0)
	if s1.term != 1 || s1.leaderID != 0 {
		t.Fatalf("renewal moved the view: term=%d leader=%d", s1.term, s1.leaderID)
	}
	// Equal term from a higher id than the believed leader: stale.
	s1.onLease(1, 2)
	if c.StaleLeases != 1 || s1.leaderID != 0 {
		t.Fatalf("stale lease accepted: stale=%d leader=%d", c.StaleLeases, s1.leaderID)
	}
	// Adjust from an older term: rejected, counted separately, not applied.
	s1.applyAdjust(0, 0, []float64{2, -1, -1, -1})
	if c.StaleAdjusts != 1 || c.Adjusts != 0 || s1.adjust[0] != 1 {
		t.Fatalf("stale adjust leaked through: staleAdj=%d adjusts=%d adjust[0]=%g",
			c.StaleAdjusts, c.Adjusts, s1.adjust[0])
	}
	// Higher term always wins, even from a higher id.
	s1.onLease(2, 3)
	if s1.term != 2 || s1.leaderID != 3 {
		t.Fatalf("higher term rejected: term=%d leader=%d", s1.term, s1.leaderID)
	}
	// Equal term, lower id: split-lease resolution switches the leader.
	s1.onLease(2, 1)
	if s1.leaderID != 1 {
		t.Fatalf("equal-term lower id not preferred: leader=%d", s1.leaderID)
	}
	// The deposed higher-id leader of the same term is now stale.
	s1.onLease(2, 3)
	if c.StaleLeases != 2 || s1.leaderID != 1 {
		t.Fatalf("deposed leader re-accepted: stale=%d leader=%d", c.StaleLeases, s1.leaderID)
	}
	// A valid adjust stamped with the current term installs and renews.
	s1.applyAdjust(2, 1, []float64{0.5, -1, -1, -1})
	if c.Adjusts != 1 || s1.adjust[0] != 0.5 {
		t.Fatalf("valid adjust not applied: adjusts=%d adjust[0]=%g", c.Adjusts, s1.adjust[0])
	}
}

// TestSplitLeaseStepDown resolves a two-leader split directly: the
// higher-id leader steps down when the lower-id leader's equal-term lease
// arrives, and ignores an equal-term lease from a higher id.
func TestSplitLeaseStepDown(t *testing.T) {
	eng := sim.NewEngine()
	c, err := New(eng, Config{Hosts: 4, Shards: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.AddTenants(4)
	s2 := c.shards[2]
	s2.term, s2.leaderID, s2.isLeader = 5, 2, true

	// An equal-term lease from a higher id does not depose the leader.
	s2.onLease(5, 3)
	if !s2.isLeader || c.StaleLeases != 1 {
		t.Fatalf("higher-id lease deposed the leader: leader=%v stale=%d", s2.isLeader, c.StaleLeases)
	}
	// An equal-term lease from a lower id does.
	s2.onLease(5, 1)
	if s2.isLeader || s2.leaderID != 1 || s2.term != 5 {
		t.Fatalf("split lease unresolved: isLeader=%v leader=%d term=%d",
			s2.isLeader, s2.leaderID, s2.term)
	}
}

// --- host crash-stop recovery ----------------------------------------------

// TestSourceCrashResumesFromCheckpoint: the chosen replica host dies
// mid-transfer; the job must resume on the surviving replica from the
// acked offset, not from zero, and complete exactly once.
func TestSourceCrashResumesFromCheckpoint(t *testing.T) {
	eng := sim.NewEngine()
	c, err := New(eng, Config{Hosts: 8, Shards: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	c.AddTenants(1)
	d := c.AddDataset([]int{0, 1}) // locality tie → lower id → host 0 chosen
	size := float64(units.GB)
	j := c.Submit(0, 0, d, 4, size, 0)

	plan := &faults.Plan{}
	plan.HostOutage(0, 0.5, 5) // crash mid-transfer, restart long after the job is done
	plan.ApplyTo(eng, c)
	c.Run()

	if j.state != jobDone || c.completions[j.id] != 1 {
		t.Fatalf("job state=%d completions=%d, want done exactly once", j.state, c.completions[j.id])
	}
	if c.HostFails != 1 || c.DeadDeclared != 1 || c.JobsRequeued == 0 {
		t.Fatalf("failure plane idle: fails=%d declared=%d requeued=%d",
			c.HostFails, c.DeadDeclared, c.JobsRequeued)
	}
	if j.ckpt <= 0 || j.ckpt >= size {
		t.Fatalf("source crash must preserve a partial checkpoint, got %.0f of %.0f", j.ckpt, size)
	}
	if j.src != 1 {
		t.Fatalf("resume picked src %d, want surviving replica 1", j.src)
	}
	if err := c.VerifyExactlyOnce(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashUndeclaredCount: the detector's count of down-but-undeclared
// hosts matches a recount throughout a plan with a crash restored before it
// is declared, crashes that are declared, and a host that fails again
// before its readmission.
func TestCrashUndeclaredCount(t *testing.T) {
	eng := sim.NewEngine()
	c, err := New(eng, Config{Hosts: 8, Shards: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	c.AddTenants(1)
	d := c.AddDataset([]int{0, 1})
	c.Submit(0, 0, d, 4, float64(64*units.GB), 0) // outlives the plan
	plan := &faults.Plan{}
	plan.HostOutage(2, 0.5, 0.5) // back before the detector fires
	plan.HostOutage(3, 0.5, 3)   // declared, restored at 3.5 ...
	plan.HostOutage(3, 3.7, 1)   // ... and down again before readmission
	plan.HostOutage(5, 1, 2)
	plan.ApplyTo(eng, c)
	for i := 1; i <= 80; i++ {
		eng.At(sim.Time(i)*0.1, func() {
			want := 0
			for h := range c.hosts {
				if c.hostDown[h] && !c.deadDeclared[h] {
					want++
				}
			}
			if c.undeclared != want {
				t.Fatalf("t=%v: undeclared=%d, recount %d", eng.Now(), c.undeclared, want)
			}
		})
	}
	c.Run()
	if c.HostFails != 4 || c.DeadDeclared != 2 {
		t.Fatalf("fails=%d declared=%d, want 4 and 2", c.HostFails, c.DeadDeclared)
	}
	if err := c.VerifyExactlyOnce(); err != nil {
		t.Fatal(err)
	}
}

// TestDestinationCrashRestartsFromZero: the destination dies mid-transfer;
// its staging memory is gone, so the checkpoint resets and the job reruns
// in full after the host restarts — still exactly once.
func TestDestinationCrashRestartsFromZero(t *testing.T) {
	eng := sim.NewEngine()
	c, err := New(eng, Config{Hosts: 8, Shards: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	c.AddTenants(1)
	d := c.AddDataset([]int{0, 1})
	size := float64(units.GB)
	j := c.Submit(0, 0, d, 4, size, 0)

	plan := &faults.Plan{}
	plan.HostOutage(4, 0.5, 3) // dst crashes, restarts inside the grace period
	plan.ApplyTo(eng, c)
	c.Run()

	if j.state != jobDone || c.completions[j.id] != 1 {
		t.Fatalf("job state=%d completions=%d, want done exactly once", j.state, c.completions[j.id])
	}
	if j.ckpt != 0 {
		t.Fatalf("destination crash must zero the checkpoint, got %.0f", j.ckpt)
	}
	if c.HostRestores != 1 || c.JobsRequeued == 0 {
		t.Fatalf("restart path idle: restores=%d requeued=%d", c.HostRestores, c.JobsRequeued)
	}
	if err := c.VerifyExactlyOnce(); err != nil {
		t.Fatal(err)
	}
}

// TestPermanentDeadDestinationGivesUp: a destination that never comes back
// must not wedge the run — past giveUpAfter the job is honestly lost.
func TestPermanentDeadDestinationGivesUp(t *testing.T) {
	eng := sim.NewEngine()
	c, err := New(eng, Config{Hosts: 8, Shards: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	c.AddTenants(1)
	d := c.AddDataset([]int{0, 1})
	j := c.Submit(0, 0, d, 4, float64(units.GB), 0)

	plan := &faults.Plan{}
	plan.KillHost(4, 0.2)
	plan.ApplyTo(eng, c)
	c.Run()

	if j.state != jobLost || c.JobsLost != 1 {
		t.Fatalf("job state=%d lost=%d, want lost exactly one", j.state, c.JobsLost)
	}
	if c.completions[j.id] != 0 {
		t.Fatalf("lost job completed %d times", c.completions[j.id])
	}
	if err := c.VerifyExactlyOnce(); err != nil {
		t.Fatal(err)
	}
}

// --- controller failover and partitions ------------------------------------

// runChaosHashed runs one seeded chaos scenario (host outage + leader kill
// + partition) under a hashing tracer.
func runChaosHashed(t *testing.T, hosts, shards int, seed int64, build func(*Plan)) (string, *Cluster) {
	t.Helper()
	eng := sim.NewEngine()
	h := trace.NewHasher()
	eng.SetTracer(h)
	c, err := New(eng, Config{Hosts: hosts, Shards: shards, DropPct: 5, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := Generate(c, WorkloadConfig{
		Tenants: 2 * hosts, Jobs: 5 * hosts, Seed: seed,
	}); err != nil {
		t.Fatal(err)
	}
	plan := &faults.Plan{}
	build(&Plan{plan})
	plan.ApplyTo(eng, c)
	c.Run()
	return h.Sum(), c
}

// Plan wraps faults.Plan so scenario builders read naturally in tests.
type Plan struct{ *faults.Plan }

// TestLeaderKillElectsSuccessorAndAdopts kills the leader controller
// mid-run: the next alive shard must adopt its hosts and a successor must
// win exactly the staggered election, with delivery still exactly-once.
func TestLeaderKillElectsSuccessorAndAdopts(t *testing.T) {
	_, c := runChaosHashed(t, 12, 3, 5, func(p *Plan) {
		p.KillController(0, 1)
	})
	if c.CtrlFails != 1 || c.Adoptions != 1 {
		t.Fatalf("adoption path: fails=%d adoptions=%d", c.CtrlFails, c.Adoptions)
	}
	if c.Elections < 1 {
		t.Fatalf("leader death triggered no election")
	}
	if !c.shards[1].isLeader {
		t.Fatalf("deterministic successor should be shard 1 (lowest surviving stagger)")
	}
	if c.shards[2].isLeader {
		t.Fatal("two leaders after convergence")
	}
	if err := c.VerifyExactlyOnce(); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionDegradesAndConverges severs one shard: it must degrade,
// elect itself in its component, and after the heal the split resolves
// with no shard left degraded.
func TestPartitionDegradesAndConverges(t *testing.T) {
	eng := sim.NewEngine()
	c, err := New(eng, Config{Hosts: 16, Shards: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := Generate(c, WorkloadConfig{Tenants: 16, Jobs: 120, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	plan := &faults.Plan{}
	plan.PartitionWindow([]int{3}, 2, 6)
	plan.ApplyTo(eng, c)
	c.Run()

	if c.DegradedIn < 1 {
		t.Fatal("severed shard never degraded")
	}
	if c.DegradedOut != c.DegradedIn {
		t.Fatalf("degraded entries %d ≠ exits %d", c.DegradedIn, c.DegradedOut)
	}
	if got := c.DegradedShards(); got != 0 {
		t.Fatalf("%d shards still degraded after heal", got)
	}
	if c.PartDrops < 1 {
		t.Fatal("partition severed no control traffic")
	}
	if c.Elections < 1 {
		t.Fatal("minority component elected no leader")
	}
	// Exactly one leader after convergence, and the minority leader's higher
	// term wins the healed cluster.
	leaders := 0
	for _, sh := range c.shards {
		if sh.alive && sh.isLeader {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d leaders after heal, want 1", leaders)
	}
	if !c.shards[3].isLeader {
		t.Fatal("higher-term minority leader should win the healed cluster")
	}
	if c.JobsLost != 0 {
		t.Fatalf("control partition lost %d jobs (data plane was never cut)", c.JobsLost)
	}
	if err := c.VerifyExactlyOnce(); err != nil {
		t.Fatal(err)
	}
}

// TestChaosDeterminism20Seeds is the failure-plane replay contract: twenty
// seeds, each seed's run injecting a host outage, a leader kill, and a
// control partition, every pair of same-seed runs bit-identical.
func TestChaosDeterminism20Seeds(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			build := func(p *Plan) {
				p.HostOutage(int(seed)%30, 3, 4)
				p.KillController(0, 6)
				p.PartitionWindow([]int{2}, 9, 3)
			}
			sum1, c1 := runChaosHashed(t, 30, 3, seed, build)
			sum2, c2 := runChaosHashed(t, 30, 3, seed, build)
			if sum1 != sum2 {
				t.Fatalf("seed %d: chaos trace diverged", seed)
			}
			if c1.JobsRequeued != c2.JobsRequeued || c1.Elections != c2.Elections ||
				c1.JobsLost != c2.JobsLost {
				t.Fatalf("seed %d: failure counters diverged between identical runs", seed)
			}
			if c1.HostFails != 1 || c1.CtrlFails != 1 {
				t.Fatalf("seed %d: plan not applied: fails=%d ctrl=%d",
					seed, c1.HostFails, c1.CtrlFails)
			}
			if err := c1.VerifyExactlyOnce(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		})
	}
}
