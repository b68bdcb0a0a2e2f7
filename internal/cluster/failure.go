package cluster

// Cluster-scale failure domains: crash-stop hosts (with optional cold
// restart), crash-stop shard controllers with deterministic successor
// adoption, control-plane partitions, and ECMP re-routing around dead
// fabric trunks. Cluster implements faults.Sink, so one faults.Plan can
// schedule link faults and cluster faults together and the whole chaos
// timeline stays bit-replayable.
//
// The split between physical truth and the control plane's view is the
// organizing idea: FailHost flips hostDown and darkens the access link at
// the fault instant (flows stall immediately — physics), while the owning
// shard only declares the host dead after missedBeats heartbeat intervals
// (detection latency — protocol). Everything recovery does hangs off the
// declared view, never the physical one.

import (
	"fmt"
	"math"

	"e2edt/internal/fabric"
)

// FailHost crash-stops host id: its access link goes dark (in-flight flows
// stall physically), its staging memory is lost, and it stops
// heartbeating. Implements faults.Sink.
func (c *Cluster) FailHost(id int) {
	if id < 0 || id >= len(c.hosts) {
		panic(fmt.Sprintf("cluster: FailHost(%d) out of range [0,%d)", id, len(c.hosts)))
	}
	if c.hostDown[id] {
		return
	}
	c.hostDown[id] = true
	if !c.deadDeclared[id] {
		c.undeclared++
	}
	c.crashedAt[id] = c.Eng.Now()
	c.HostFails++
	c.Eng.Tracef("cluster", "host %d crash-stops", id)
	c.Topo.PortLinks[id].Fail()
}

// RestoreHost cold-restarts a crashed host: its link comes back, but anything
// staged before the crash is gone (requeued jobs already zeroed their
// checkpoints). The owner readmits the host when its first post-restart
// heartbeat lands. Implements faults.Sink.
func (c *Cluster) RestoreHost(id int) {
	if id < 0 || id >= len(c.hosts) {
		panic(fmt.Sprintf("cluster: RestoreHost(%d) out of range [0,%d)", id, len(c.hosts)))
	}
	if !c.hostDown[id] {
		return
	}
	c.hostDown[id] = false
	if !c.deadDeclared[id] {
		c.undeclared--
	}
	c.crashedAt[id] = -1
	c.HostRestores++
	c.Eng.Tracef("cluster", "host %d restarts cold", id)
	c.Topo.PortLinks[id].Restore()
	if c.deadDeclared[id] {
		c.Eng.Schedule(heartbeatEvery, func() {
			if c.done || c.hostDown[id] || !c.deadDeclared[id] {
				return
			}
			c.deadDeclared[id] = false
			sh := c.owner(id)
			c.Eng.Tracef("cluster", "shard %d readmits host %d", sh.id, id)
			sh.admit()
		})
	}
}

// LimpHost inflates host id's service time: every core runs at factor ×
// speed (0 < factor ≤ 1; 1 restores nominal). The host stays alive —
// links up, heartbeats flowing — so the binary death detector never fires;
// only the gray scorer (when enabled) can notice the sag. Implements
// faults.Sink.
func (c *Cluster) LimpHost(id int, factor float64) {
	if id < 0 || id >= len(c.hosts) {
		panic(fmt.Sprintf("cluster: LimpHost(%d) out of range [0,%d)", id, len(c.hosts)))
	}
	if factor <= 0 || factor > 1 {
		panic(fmt.Sprintf("cluster: LimpHost factor %v outside (0, 1]", factor))
	}
	if c.limp[id] == factor {
		return
	}
	entering := c.limp[id] == 1
	c.limp[id] = factor
	if factor < 1 {
		if entering {
			c.HostLimps++
		}
		c.Eng.Tracef("cluster", "host %d limps: cores at %.1f%% speed", id, factor*100)
	} else {
		c.Eng.Tracef("cluster", "host %d limp clears", id)
	}
	for _, n := range c.hosts[id].h.M.Nodes {
		for _, core := range n.Cores {
			c.FSim.SetCapacity(core.Res, factor)
		}
	}
}

// FailController crash-stops shard controller k permanently: its tickers
// die, its queue and running set are orphaned, and after a lease timeout
// the next alive shard adopts its hosts and state. If k was the leader the
// remaining shards will separately notice the silent lease and elect.
// Implements faults.Sink.
func (c *Cluster) FailController(k int) {
	if k < 0 || k >= len(c.shards) {
		panic(fmt.Sprintf("cluster: FailController(%d) out of range [0,%d)", k, len(c.shards)))
	}
	sh := c.shards[k]
	if !sh.alive {
		return
	}
	sh.alive = false
	sh.stop()
	c.CtrlFails++
	c.Eng.Tracef("cluster", "shard controller %d crash-stops (leader=%v term=%d)", k, sh.isLeader, sh.term)
	c.Eng.Schedule(leaseTimeout, func() { c.adoptOrphans(k) })
}

// adoptOrphans moves a dead controller's hosts, queue, running set, and
// reconciliation window onto the next alive shard (by id, wrapping) — the
// deterministic successor rule.
func (c *Cluster) adoptOrphans(dead int) {
	if c.done {
		return
	}
	succ := c.nextAlive(dead)
	if succ == nil {
		c.Eng.Tracef("cluster", "no live controller to adopt shard %d", dead)
		return
	}
	d := c.shards[dead]
	hostsMoved := 0
	for h := range c.ownerOf {
		if c.ownerOf[h] == dead {
			c.ownerOf[h] = succ.id
			hostsMoved++
		}
	}
	for _, j := range d.queue {
		succ.insert(j)
	}
	queued := len(d.queue)
	d.queue = nil
	for _, j := range d.running {
		j.shard = succ
		succ.running = append(succ.running, j)
	}
	running := len(d.running)
	d.running = nil
	for t, v := range d.window {
		if v > 0 {
			succ.window[t] += v
			d.window[t] = 0
		}
	}
	c.Adoptions++
	c.Eng.Tracef("cluster", "shard %d adopts shard %d: %d hosts, %d queued, %d running",
		succ.id, dead, hostsMoved, queued, running)
	succ.admit()
}

// nextAlive returns the first alive shard after dead (wrapping), or nil.
func (c *Cluster) nextAlive(dead int) *shard {
	k := len(c.shards)
	for i := 1; i < k; i++ {
		if sh := c.shards[(dead+i)%k]; sh.alive {
			return sh
		}
	}
	return nil
}

// StartPartition severs control traffic between the listed shards and the
// rest. Data-plane links are untouched: transfers keep moving, only
// coordination stops. Implements faults.Sink.
func (c *Cluster) StartPartition(shards []int) {
	c.partitioned = true
	for i := range c.partSide {
		c.partSide[i] = false
	}
	for _, k := range shards {
		if k >= 0 && k < len(c.partSide) {
			c.partSide[k] = true
		}
	}
	c.Eng.Tracef("cluster", "control plane partitioned: %v severed", shards)
}

// HealPartition reconnects the control plane. Conflicting leaders resolve
// on the next lease exchange: higher term wins, equal terms go to the
// lower id. Implements faults.Sink.
func (c *Cluster) HealPartition() {
	if !c.partitioned {
		return
	}
	c.partitioned = false
	c.Eng.Tracef("cluster", "control plane partition healed")
}

// rerouteAround pulls running jobs off a freshly dead fabric link and
// restarts them checkpoint-aware; the dead-link-aware ECMP route they get
// back avoids the casualty. Jobs with no live alternative path are left in
// place — their flows stall and resume when the link heals, which beats a
// cancel/restart loop that would land on the same dead trunk.
func (c *Cluster) rerouteAround(l *fabric.Link) {
	if c.done {
		return
	}
	for _, sh := range c.shards {
		for i := 0; i < len(sh.running); {
			j := sh.running[i]
			if !jobUsesLink(j, l) {
				i++
				continue
			}
			fresh := c.Topo.Route(j.src, j.dst, uint64(j.id))
			if routeDead(fresh) {
				i++
				continue
			}
			c.Reroutes++
			sh.requeue(j, false, "reroute off dead "+l.Cfg.Name)
		}
	}
}

func jobUsesLink(j *job, l *fabric.Link) bool {
	for _, h := range j.hops {
		if h.Link == l {
			return true
		}
	}
	return false
}

func routeDead(hops []fabric.Hop) bool {
	for _, h := range hops {
		if h.Link.Failed() {
			return true
		}
	}
	return false
}

// VerifyExactlyOnce audits the delivery invariant after Run: every done
// job completed exactly once, no lost job ever completed, and the summed
// delivered-bytes counters equal the summed sizes of done jobs — requeues,
// failovers, and voided completions included.
func (c *Cluster) VerifyExactlyOnce() error {
	var doneBytes float64
	for i, j := range c.jobs {
		switch j.state {
		case jobDone:
			if c.completions[i] != 1 {
				return fmt.Errorf("cluster: job %d completed %d times", i, c.completions[i])
			}
			doneBytes += j.size
		case jobLost:
			if c.completions[i] != 0 {
				return fmt.Errorf("cluster: lost job %d completed %d times", i, c.completions[i])
			}
		default:
			return fmt.Errorf("cluster: job %d neither done nor lost (state %d)", i, j.state)
		}
	}
	if c.remaining != 0 {
		return fmt.Errorf("cluster: %d jobs unaccounted for after run", c.remaining)
	}
	delivered := c.deliveredBytes()
	// Tolerance is relative: the two ledgers sum in different orders, and
	// float accumulation over tens of thousands of multi-hundred-MB jobs
	// legitimately drifts by a few ulps of the total.
	if tol := math.Max(1, 1e-9*doneBytes); math.Abs(delivered-doneBytes) > tol {
		return fmt.Errorf("cluster: delivered %.0f bytes but completed jobs sum to %.0f", delivered, doneBytes)
	}
	return nil
}

// DegradedShards counts shards currently in degraded mode (dead
// controllers excluded — they are failed, not degraded).
func (c *Cluster) DegradedShards() int {
	n := 0
	for _, sh := range c.shards {
		if sh.alive && sh.degraded {
			n++
		}
	}
	return n
}
