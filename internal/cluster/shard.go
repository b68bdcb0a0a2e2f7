package cluster

import (
	"math"
	"sort"
	"time"

	"e2edt/internal/sim"
)

// shard is one control-plane replica. It owns the hosts assigned to it
// (initially id ≡ host mod K; adoption moves ownership when a controller
// dies): jobs destined to an owned host queue here, admission and tenant
// fair share are enforced here, and per-tenant delivered bytes are pushed
// to the current leader for global reconciliation.
//
// Leadership is lease-based with monotonic terms. The leader broadcasts
// term-stamped leases; every control message that carries authority (lease,
// adjust) is accepted only if its term beats the receiver's view — higher
// term wins, equal terms go to the lower shard id, anything else is
// rejected as stale. A follower whose lease goes silent past leaseTimeout
// clamps its adjust factors to 1 (degraded mode: local weighted fair share
// only) and runs for leader after a deterministic stagger, so exactly one
// successor emerges per connected component without randomness.
type shard struct {
	c  *Cluster
	id int

	// queue holds jobs awaiting admission, kept sorted by
	// (priority desc, submit time, id) — xfersched's total order.
	queue []*job
	// running holds admitted jobs in admission order.
	running []*job

	// adjust is this shard's copy of the leader's per-tenant weight
	// correction; stale between reconciliations (or longer, when the
	// broadcast drops).
	adjust []float64
	// window accumulates per-tenant delivered bytes since the last digest.
	window []float64

	// acc is leader state: delivered bytes accumulated from every shard's
	// digests during the current reconcile interval. Allocated on all
	// shards — any of them may be elected.
	acc []float64

	// Liveness and leadership.
	alive     bool
	term      int      // highest term seen
	leaderID  int      // who this shard believes leads that term
	isLeader  bool     // this shard holds the lease
	lastLease sim.Time // when authority was last heard from
	degraded  bool     // lease silent past timeout: local fair share only
	candidate bool     // election timer armed

	admitted int
	digestT  *sim.Ticker
	adjustT  *sim.Ticker
	scanT    *sim.Ticker
	leaseT   *sim.Ticker
	electT   *sim.Timer
	stopped  bool
}

func newShard(c *Cluster, id int) *shard {
	return &shard{
		c: c, id: id,
		alive: true, term: 1, leaderID: 0, isLeader: id == 0,
	}
}

// growTenants sizes the per-tenant arrays (dense, so no simulation path
// ever iterates a map).
func (s *shard) growTenants(n int) {
	for len(s.adjust) < n {
		s.adjust = append(s.adjust, 1)
		s.window = append(s.window, 0)
	}
	for len(s.acc) < n {
		s.acc = append(s.acc, 0)
	}
}

// startTickers arms the shard's periodic work: digest pushes to the
// leader, (leader only) lease broadcasts plus adjustment reconciliation
// offset by half an interval so digests land first, and a fast scan that
// drives failure detection, lease checks, and re-admission.
func (s *shard) startTickers() {
	every := reconcileEvery
	s.digestT = s.c.Eng.NewTicker(every, func(sim.Time) { s.pushDigest() })
	if s.isLeader {
		s.c.Eng.Schedule(every/2, func() {
			if s.stopped || !s.isLeader {
				return
			}
			s.startLeaderDuties()
			s.reconcile()
		})
	}
	s.scanT = s.c.Eng.NewTicker(every/5, func(sim.Time) { s.scan() })
}

// startLeaderDuties arms the lease and reconcile tickers on a (newly)
// leading shard.
func (s *shard) startLeaderDuties() {
	s.adjustT = s.c.Eng.NewTicker(reconcileEvery, func(sim.Time) { s.reconcile() })
	s.leaseT = s.c.Eng.NewTicker(leaseEvery, func(sim.Time) { s.pushLease() })
}

// stopLeaderDuties disarms them on step-down.
func (s *shard) stopLeaderDuties() {
	if s.adjustT != nil {
		s.adjustT.Stop()
		s.adjustT = nil
	}
	if s.leaseT != nil {
		s.leaseT.Stop()
		s.leaseT = nil
	}
}

// stop disarms every ticker and timer so the event queue can drain.
func (s *shard) stop() {
	s.stopped = true
	if s.digestT != nil {
		s.digestT.Stop()
	}
	if s.scanT != nil {
		s.scanT.Stop()
	}
	if s.electT != nil {
		s.electT.Stop()
	}
	s.stopLeaderDuties()
}

// scan is the shard's fast loop: declare silent hosts dead, watch the
// leader's lease, requeue jobs stranded on declared-dead hosts, then run
// an admission pass.
func (s *shard) scan() {
	if s.stopped || !s.alive {
		return
	}
	s.detectDeadHosts()
	s.checkLease()
	s.reapDead()
	s.admit()
}

// detectDeadHosts declares owned hosts dead once their heartbeats have
// been silent for missedBeats intervals, in ascending host order. The
// declaration — not the crash — is what recovery keys off.
func (s *shard) detectDeadHosts() {
	c := s.c
	if c.undeclared == 0 {
		return
	}
	now := c.Eng.Now()
	const wait = sim.Time(heartbeatEvery * missedBeats)
	for h := range c.hosts {
		if c.ownerOf[h] != s.id || c.deadDeclared[h] || !c.hostDown[h] {
			continue
		}
		if now-c.crashedAt[h] >= wait {
			c.deadDeclared[h] = true
			c.undeclared--
			c.declaredAt[h] = now
			c.DeadDeclared++
			c.Eng.Tracef("cluster", "shard %d declares host %d dead (%d beats missed)",
				s.id, h, missedBeats)
		}
	}
}

// reapDead requeues running jobs whose source or destination has been
// declared dead. Source crash: the acked prefix survives as a checkpoint
// and a surviving replica takes over. Destination crash: the staged bytes
// died with the host, so the checkpoint resets.
func (s *shard) reapDead() {
	c := s.c
	for i := 0; i < len(s.running); {
		j := s.running[i]
		if c.deadDeclared[j.dst] {
			s.requeue(j, true, "destination dead")
			continue
		}
		if c.deadDeclared[j.src] {
			s.requeue(j, false, "source dead")
			continue
		}
		i++
	}
}

// requeue cancels a running job's transfer and returns it to the admission
// queue with its checkpoint updated. Cancel never fires OnComplete, so a
// requeued job cannot also finish — the exactly-once edge.
func (s *shard) requeue(j *job, dstLost bool, why string) {
	c := s.c
	if dstLost {
		j.ckpt = 0
	} else {
		c.FSim.Sync()
		j.ckpt += j.xfer.Transferred()
	}
	c.FSim.Cancel(j.xfer)
	j.xfer, j.hops = nil, nil
	c.hosts[j.src].srcActive--
	c.hosts[j.dst].dstActive--
	s.removeRunning(j)
	c.JobsRequeued++
	c.Eng.Tracef("cluster", "shard %d requeues job %d (%s, ckpt %.0f/%.0f)",
		s.id, j.id, why, j.ckpt, j.size)
	s.insert(j)
}

// removeRunning drops j from the running set.
func (s *shard) removeRunning(j *job) {
	for i, r := range s.running {
		if r == j {
			s.running = append(s.running[:i], s.running[i+1:]...)
			return
		}
	}
}

// checkLease notices a silent leader: past leaseTimeout the shard enters
// degraded mode and arms a staggered candidacy. The stagger —
// electStagger × (id+1) — makes the lowest-id survivor in each connected
// component win deterministically; its announce cancels the rest.
func (s *shard) checkLease() {
	c := s.c
	if s.isLeader {
		return
	}
	if c.Eng.Now()-s.lastLease <= sim.Time(leaseTimeout) {
		return
	}
	if !s.degraded {
		s.enterDegraded()
	}
	if !s.candidate {
		s.candidate = true
		delay := electStagger * sim.Duration(s.id+1)
		c.Eng.Tracef("cluster", "shard %d lease expired (leader %d term %d); candidacy in %.2fs",
			s.id, s.leaderID, s.term, float64(delay))
		s.electT = c.Eng.NewTimer(delay, func(sim.Time) { s.runElection() })
	}
}

// runElection makes this shard the leader of a new term, unless a valid
// lease arrived while the candidacy timer ran.
func (s *shard) runElection() {
	c := s.c
	if s.stopped || !s.alive || s.isLeader {
		return
	}
	s.candidate = false
	if c.Eng.Now()-s.lastLease <= sim.Time(leaseTimeout) {
		return // a leader spoke up in the meantime
	}
	s.term++
	s.isLeader = true
	s.leaderID = s.id
	s.lastLease = c.Eng.Now()
	c.Elections++
	c.Eng.Tracef("cluster", "shard %d elected leader (term %d)", s.id, s.term)
	if s.degraded {
		s.exitDegraded()
	}
	s.startLeaderDuties()
	s.pushLease()
}

// pushLease broadcasts the leader's term-stamped lease to every other
// alive shard over the lossy control plane.
func (s *shard) pushLease() {
	if s.stopped || !s.alive || !s.isLeader {
		return
	}
	term, from := s.term, s.id
	for _, sh := range s.c.shards {
		if sh == s {
			continue
		}
		sh := sh
		s.c.sendCtrl(s, sh, func() { sh.onLease(term, from) })
	}
}

// onLease applies the term-ordering acceptance rule to a lease message.
func (s *shard) onLease(term, from int) {
	if s.stopped || !s.alive {
		return
	}
	if !s.acceptAuthority(term, from, "lease") {
		return
	}
	s.renewLease(term, from)
}

// acceptAuthority decides whether a term-stamped message carries current
// authority: higher term always wins; an equal term wins only for the
// leader already believed (renewal) or a lower id (split-lease
// resolution). Everything else is stale and rejected.
func (s *shard) acceptAuthority(term, from int, what string) bool {
	if term > s.term {
		return true
	}
	if term == s.term && (from == s.leaderID || from < s.leaderID) {
		return true
	}
	if what == "lease" {
		s.c.StaleLeases++
	} else {
		s.c.StaleAdjusts++
	}
	s.c.Eng.Tracef("cluster", "shard %d rejects stale %s from %d (term %d < %d/leader %d)",
		s.id, what, from, term, s.term, s.leaderID)
	return false
}

// renewLease installs (term, from) as current authority: steps down a
// deposed local leadership, cancels any candidacy, exits degraded mode.
func (s *shard) renewLease(term, from int) {
	if s.isLeader && from != s.id {
		s.isLeader = false
		s.stopLeaderDuties()
		s.c.Eng.Tracef("cluster", "shard %d steps down for leader %d (term %d)", s.id, from, term)
	}
	s.term = term
	s.leaderID = from
	s.lastLease = s.c.Eng.Now()
	if s.candidate {
		s.candidate = false
		if s.electT != nil {
			s.electT.Stop()
		}
	}
	if s.degraded {
		s.exitDegraded()
	}
}

// enterDegraded clamps every adjust factor to 1: with no live leader the
// shard falls back to local weighted fair share, which is stable (if
// globally unfair) until authority returns.
func (s *shard) enterDegraded() {
	s.degraded = true
	s.c.DegradedIn++
	s.c.Eng.Tracef("cluster", "shard %d enters degraded mode (lease silent)", s.id)
	var touched []int
	for t, v := range s.adjust {
		if v != 1 {
			s.adjust[t] = 1
			touched = append(touched, t)
		}
	}
	if len(touched) > 0 {
		s.rebalance(touched)
	}
}

// exitDegraded ends degraded mode; the next adjust broadcast restores the
// global correction.
func (s *shard) exitDegraded() {
	s.degraded = false
	s.c.DegradedOut++
	s.c.Eng.Tracef("cluster", "shard %d exits degraded mode (term %d leader %d)", s.id, s.term, s.leaderID)
}

// order is the admission total order: priority desc, then submit time,
// then id — a deterministic tie-break chain identical to xfersched's.
func order(a, b *job) bool {
	if a.priority != b.priority {
		return a.priority > b.priority
	}
	if a.submit != b.submit {
		return a.submit < b.submit
	}
	return a.id < b.id
}

// insert places a job into the sorted queue without an admission pass
// (requeues and adoptions batch their passes).
func (s *shard) insert(j *job) {
	j.state = jobQueued
	i := sort.Search(len(s.queue), func(i int) bool { return order(j, s.queue[i]) })
	s.queue = append(s.queue, nil)
	copy(s.queue[i+1:], s.queue[i:])
	s.queue[i] = j
}

// enqueue inserts a delivered job into the sorted queue and runs an
// admission pass.
func (s *shard) enqueue(j *job) {
	s.insert(j)
	s.c.Eng.Tracef("cluster", "shard %d queues job %d tenant %d dst %d", s.id, j.id, j.tenant, j.dst)
	s.admit()
}

// pickSource chooses the replica to read from: the nearest (same host,
// then same leaf, then same pod, then anywhere) replica with source
// capacity, ties broken by lighter load then lower host id. Declared-dead
// hosts are never picked. Returns -1 when every live replica is saturated
// or none are live.
func (s *shard) pickSource(j *job) int {
	best, bestScore, bestLoad := -1, 0, 0
	for _, r := range s.c.datasets[j.dataset] {
		if s.c.deadDeclared[r] {
			continue
		}
		hn := s.c.hosts[r]
		if hn.srcActive >= maxPerHost {
			continue
		}
		score := s.c.locality(r, j.dst)
		if s.c.hostSuspect[r] {
			// A limping replica is worse than any healthy locality tier:
			// read from it only when nothing healthy holds the data.
			score += localityCore + 1
		}
		if best == -1 || score < bestScore ||
			(score == bestScore && (hn.srcActive < bestLoad ||
				(hn.srcActive == bestLoad && r < best))) {
			best, bestScore, bestLoad = r, score, hn.srcActive
		}
	}
	return best
}

// hopeless reports whether j can never run again: its destination (or its
// entire replica set) has been declared dead for longer than giveUpAfter.
// The grace period lets a restarted host reclaim its queue.
func (s *shard) hopeless(j *job) bool {
	c := s.c
	now := c.Eng.Now()
	if c.deadDeclared[j.dst] {
		return now-c.declaredAt[j.dst] > sim.Time(giveUpAfter)
	}
	newest := sim.Time(-1)
	for _, r := range c.datasets[j.dataset] {
		if !c.deadDeclared[r] {
			return false
		}
		if c.declaredAt[r] > newest {
			newest = c.declaredAt[r]
		}
	}
	return now-newest > sim.Time(giveUpAfter)
}

// giveUp marks a queued job lost: its destination or every replica stayed
// dead past the grace period.
func (s *shard) giveUp(j *job) {
	j.state = jobLost
	s.c.JobsLost++
	s.c.Eng.Tracef("cluster", "shard %d gives up job %d (dead hosts past grace)", s.id, j.id)
	if s.c.OnJobLost != nil {
		s.c.OnJobLost(j.id, s.c.Eng.Now())
	}
	s.c.jobFinished()
}

// admit runs one admission pass: walk the queue in order, start every job
// whose destination and chosen source have capacity, then rebalance the
// fair-share weights of tenants that gained flows. Jobs waiting on
// declared-dead hosts are held (or abandoned past the grace period). The
// pass is wrapped in a wall-clock stopwatch feeding the decision-latency
// histogram — the measurement is observational only and never enters the
// simulation.
func (s *shard) admit() {
	if s.stopped || !s.alive || len(s.queue) == 0 {
		return
	}
	t0 := time.Now()
	var touched []int
	kept := s.queue[:0]
	for _, j := range s.queue {
		if s.shedHeld(j) {
			kept = append(kept, j)
			continue
		}
		if s.c.deadDeclared[j.dst] {
			if s.hopeless(j) {
				s.giveUp(j)
			} else {
				kept = append(kept, j)
			}
			continue
		}
		if s.c.hosts[j.dst].dstActive >= maxPerHost {
			kept = append(kept, j)
			continue
		}
		src := s.pickSource(j)
		if src < 0 {
			if s.hopeless(j) {
				s.giveUp(j)
			} else {
				kept = append(kept, j)
			}
			continue
		}
		j.src = src
		s.c.start(j, s)
		s.running = append(s.running, j)
		s.admitted++
		touched = append(touched, j.tenant)
	}
	s.queue = kept
	if len(touched) > 0 {
		s.rebalance(touched)
	}
	s.c.DecisionLat.Observe(float64(time.Since(t0).Nanoseconds()) / 1e3)
}

// rebalance recomputes flow weights for the given tenants so that each
// tenant's aggregate share in this shard tracks weight × adjust regardless
// of how many jobs it has running. One Reschedule propagates the batch:
// each weight goes through the Network setter, which queues the flow on
// the solver's dirty list without solving, so the solver refills only the
// bottleneck subgraphs the changed flows cross instead of invalidating the
// whole network.
func (s *shard) rebalance(tenants []int) {
	sort.Ints(tenants)
	changed := false
	prev := -1
	for _, t := range tenants {
		if t == prev {
			continue
		}
		prev = t
		if s.applyWeight(t) {
			changed = true
		}
	}
	if changed {
		s.c.FSim.Reschedule()
	}
}

// applyWeight sets weight×adjust/runningJobs on every running flow of
// tenant t, reporting whether anything moved. A tenant whose last job
// completed in this same reconcile tick has no running jobs even though its
// digest just arrived — the n==0 guard keeps that race from dividing by
// zero — and a job mid-requeue can sit in the running set with no transfer,
// which must not be dereferenced or counted toward the split.
func (s *shard) applyWeight(t int) bool {
	n := 0
	for _, j := range s.running {
		if j.tenant == t && j.xfer != nil {
			n++
		}
	}
	if n == 0 {
		return false
	}
	w := s.c.tenants[t].weight * s.adjust[t] / float64(n)
	changed := false
	for _, j := range s.running {
		if j.tenant != t || j.xfer == nil {
			continue
		}
		f := j.xfer.Flow
		if diff := f.Weight() - w; diff > 1e-9 || diff < -1e-9 {
			s.c.FSim.Network.SetWeight(f, w)
			changed = true
		}
	}
	return changed
}

// jobDone retires a completed job from the shard's running set and credits
// the tenant's delivered window for reconciliation.
func (s *shard) jobDone(j *job) {
	s.removeRunning(j)
	s.window[j.tenant] += j.size
}

// pushDigest sends the per-tenant delivered window to the believed leader.
// The message rides the lossy control plane: a dropped digest simply loses
// the window (the leader reconciles from what it heard), trading accuracy
// for the bounded state of real sharded schedulers. With no live leader
// the window is retained for the successor.
func (s *shard) pushDigest() {
	if s.stopped || !s.alive {
		return
	}
	if s.isLeader {
		// Leader folds its own window locally — no RPC, no loss coin.
		for t, v := range s.window {
			if v > 0 {
				s.acc[t] += v
				s.window[t] = 0
			}
		}
		return
	}
	target := s.c.shards[s.leaderID]
	if !target.alive {
		return // hold the window until a successor takes the lease
	}
	delta := make([]float64, len(s.window))
	any := false
	for t, v := range s.window {
		if v > 0 {
			delta[t] = v
			s.window[t] = 0
			any = true
		}
	}
	if !any {
		return
	}
	if !s.c.sendCtrl(s, target, func() {
		s.c.Digests++
		for t, v := range delta {
			if v > 0 {
				target.acc[t] += v
			}
		}
	}) {
		s.c.Eng.Tracef("cluster", "shard %d digest dropped", s.id)
	}
}

// reconcile (leader only) compares each active tenant's realized share of
// delivered bytes against its weight-proportional target and broadcasts a
// damped multiplicative correction, stamped with the leader's term so
// deposed leaders' broadcasts die on arrival. Shards apply it to running
// flows, so a tenant starved on one shard is boosted everywhere — inter-
// host fair share without a global scheduler.
func (s *shard) reconcile() {
	if s.stopped || !s.alive || !s.isLeader {
		return
	}
	var total, wsum float64
	for t, v := range s.acc {
		if v > 0 {
			total += v
			wsum += s.c.tenants[t].weight
		}
	}
	if total <= 0 || wsum <= 0 {
		return
	}
	newAdj := make([]float64, len(s.acc))
	for t := range newAdj {
		newAdj[t] = -1 // sentinel: no update for this tenant
	}
	for t, v := range s.acc {
		if v <= 0 {
			continue
		}
		target := s.c.tenants[t].weight / wsum
		actual := v / total
		// Damped multiplicative correction, clamped so a stale or lossy
		// view can never run a tenant's weight away.
		adj := s.adjust[t] * damp(target/actual)
		newAdj[t] = clamp(adj, 0.25, 4)
		s.acc[t] = 0
	}
	term, from := s.term, s.id
	s.applyAdjust(term, from, newAdj) // self-apply without RPC
	for _, sh := range s.c.shards {
		if sh == s {
			continue
		}
		sh := sh
		if !s.c.sendCtrl(s, sh, func() { sh.applyAdjust(term, from, newAdj) }) {
			s.c.Eng.Tracef("cluster", "adjust broadcast to shard %d dropped", sh.id)
		}
	}
	s.c.Eng.Tracef("cluster", "leader %d reconciled %d tenants (%.0f bytes, term %d)",
		s.id, countUpdates(newAdj), total, term)
}

// applyAdjust installs the leader's corrections — after the same term
// acceptance rule leases use, so a deposed leader's broadcast is rejected
// and counted. A valid adjust also renews the lease: it is proof the
// leader lives.
func (s *shard) applyAdjust(term, from int, adj []float64) {
	if s.stopped || !s.alive {
		return
	}
	if !s.acceptAuthority(term, from, "adjust") {
		return
	}
	if from != s.id {
		s.renewLease(term, from)
	}
	s.c.Adjusts++
	var touched []int
	for t, v := range adj {
		if v < 0 || t >= len(s.adjust) {
			continue
		}
		if diff := s.adjust[t] - v; diff > 1e-9 || diff < -1e-9 {
			s.adjust[t] = v
			touched = append(touched, t)
		}
	}
	if len(touched) > 0 {
		s.rebalance(touched)
	}
}

// damp is a square-root step toward the target ratio: corrective but
// stable under the half-interval-old data it acts on.
func damp(ratio float64) float64 {
	if ratio <= 0 {
		return 1
	}
	return math.Sqrt(ratio)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func countUpdates(adj []float64) int {
	n := 0
	for _, v := range adj {
		if v >= 0 {
			n++
		}
	}
	return n
}
