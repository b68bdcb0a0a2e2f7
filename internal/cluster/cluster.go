// Package cluster scales the simulation from the paper's one back-end→
// front-end path to a datacenter: N simulated hosts — each a real NUMA
// machine with bound worker threads and one access NIC — attached to a
// generated multi-stage fabric topology, driven by a sharded transfer
// control plane.
//
// The control plane follows xfersched's model (admission queue ordered by
// priority/arrival, weighted fair share per tenant) but splits ownership
// across K shards: shard k owns every host h with h mod K == k, admits jobs
// destined to its hosts, and enforces tenant fair share locally. A leader
// shard reconciles fair share globally: shards push per-tenant delivered
// digests on a fixed interval, the leader compares realized shares against
// weight-proportional targets and broadcasts per-tenant weight adjustments.
// Control messages ride a lossy RPC model (fixed delay, seeded drop
// percentage, bounded retries), so shard state is eventually — not
// instantly — consistent, exactly the regime a real sharded scheduler
// operates in.
//
// Everything that affects the simulation is deterministic in the seed:
// workload generation and RPC drops come from seeded generators drawn in
// event order, per-tenant state lives in dense arrays (no map iteration on
// simulation paths), and the trace of two runs with one seed is
// bit-identical. Wall-clock scheduler decision latency is measured around
// admission passes but kept out of the trace for exactly that reason.
package cluster

import (
	"fmt"
	"math/rand"

	"e2edt/internal/fabric"
	"e2edt/internal/fluid"
	"e2edt/internal/host"
	"e2edt/internal/metrics"
	"e2edt/internal/numa"
	"e2edt/internal/sim"
	"e2edt/internal/units"
)

// Config shapes the cluster: its size, control-plane sharding, fabric
// family, control-RPC loss and gray-failure handling. Everything else — the
// fabric shape, per-host hardware, transfer-path coefficients and the
// control-plane timings — is the fixed calibration below.
type Config struct {
	// Hosts is the number of simulated endpoint hosts.
	Hosts int
	// Shards is the number of control-plane shards (K ≥ 1). Host h is owned
	// by shard h mod K.
	Shards int
	// Topology selects the fabric family. A leaf-spine puts 32 hosts on
	// each leaf under 4 spines; a fat-tree takes the smallest even arity
	// that fits Hosts.
	Topology fabric.TopoKind
	// DropPct is the control-RPC drop percentage (0–100).
	DropPct float64
	// Gray arms the host outlier scorer and the admission shed valve for
	// limping-but-alive hosts. Off (the zero value): fully inert.
	Gray bool
	// Seed drives workload generation and RPC drops.
	Seed int64
}

// The fabric shape: a mildly oversubscribed datacenter pod with one access
// NIC per host.
const (
	hostsPerLeaf              = 32
	spines                    = 4
	hostGbps                  = 10 // access-link rate
	uplinkGbps                = 40 // switch-stage rate
	hostRTT      sim.Duration = 20e-6
	uplinkRTT    sim.Duration = 10e-6
)

// Per-host hardware, small on purpose: a thousand hosts share one solver,
// so each host models 2×2 cores, not 2×22.
const (
	numaNodes    = 2
	coresPerNode = 2
	coreHz       = 2.2e9
	memGBps      = 25 // per-node memory bandwidth
	interGBps    = 12 // inter-socket interconnect bandwidth
	// workersPerHost is the number of bound worker threads per host (pooled,
	// round-robin).
	workersPerHost = 2
)

// The transfer path and admission.
const (
	// cpuPerByte is the protocol-processing cost charged on both endpoints'
	// workers (cycles per byte).
	cpuPerByte = 0.3
	// perJobGbps caps each transfer's rate (admission reservation; also
	// freezes flows early, which keeps the max-min solver cheap).
	perJobGbps = 5
	// maxPerHost bounds concurrently admitted jobs per host per direction.
	maxPerHost = 2
)

// The control plane. Hosts heartbeat to their owning shard every
// heartbeatEvery; beats are tiny and sprayed, so the model treats the
// channel as reliable and represents the detector by its latency: the
// owner declares a host dead once missedBeats intervals pass without a
// beat. Leadership is a lease: the leader broadcasts term-stamped leases
// every leaseEvery; a follower that hears nothing for leaseTimeout enters
// degraded mode (adjust clamped to 1, local weighted fair share) and runs
// for leader after a deterministic per-shard stagger of
// electStagger × (id+1).
const (
	ctrlDelay      sim.Duration = 100e-6 // one-way control message delay
	ctrlTimeout    sim.Duration = 10e-3  // retransmit timer for reliable RPCs
	ctrlRetries                 = 30     // submit retries before a job is lost
	reconcileEvery sim.Duration = 0.25   // digest/adjust reconciliation interval
	heartbeatEvery sim.Duration = 0.5
	missedBeats                 = 3
	leaseEvery     sim.Duration = 0.5
	leaseTimeout   sim.Duration = 2
	electStagger   sim.Duration = 0.5
	// giveUpAfter bounds how long a queued job waits on a declared-dead
	// destination (or an all-dead replica set) before it is marked lost, so
	// a permanent crash cannot wedge the run.
	giveUpAfter sim.Duration = 30
)

// fatTreeK returns the smallest even fat-tree arity (at least 4) whose
// k³/4 host capacity fits hosts.
func fatTreeK(hosts int) int {
	k := 4
	for k*k*k/4 < hosts {
		k += 2
	}
	return k
}

// TopSwitches returns how many top-stage switches the configured fabric
// has — spines on leaf-spine, cores on fat-tree: the range of switch
// indices FailSpine and RestoreSpine accept.
func (c Config) TopSwitches() int {
	if c.Topology == fabric.TopoFatTree {
		half := fatTreeK(c.Hosts) / 2
		return half * half
	}
	return spines
}

// Validate rejects a configuration the cluster cannot run: no hosts, a
// zero-shard control plane, a negative or certain-loss drop rate.
func (c Config) Validate() error {
	if c.Hosts <= 0 {
		return fmt.Errorf("cluster: Hosts must be ≥ 1, got %d", c.Hosts)
	}
	if c.Shards <= 0 {
		return fmt.Errorf("cluster: Shards must be ≥ 1, got %d (the control plane needs at least one shard)", c.Shards)
	}
	if c.DropPct < 0 || c.DropPct >= 100 {
		return fmt.Errorf("cluster: DropPct must be in [0, 100), got %g", c.DropPct)
	}
	return nil
}

// hostNode is one simulated endpoint: a NUMA host, its pooled worker
// threads with node-local staging buffers, and admission state.
//
// Worker threads are created once and reused — each host.Thread owns a
// fluid limiter resource forever, so per-transfer threads would leak
// resources into the solver.
type hostNode struct {
	id      int
	h       *host.Host
	workers []*host.Thread
	bufs    []*numa.Buffer
	next    int // round-robin worker cursor

	srcActive, dstActive int

	delivered float64 // bytes landed on this host
}

// worker returns the next pooled worker round-robin.
func (hn *hostNode) worker() (*host.Thread, *numa.Buffer) {
	i := hn.next % len(hn.workers)
	hn.next++
	return hn.workers[i], hn.bufs[i]
}

type jobState int

const (
	jobPending jobState = iota
	jobQueued
	jobRunning
	jobDone
	jobLost
)

// job is one tenant transfer request: move a dataset replica to Dst.
type job struct {
	id       int
	tenant   int
	dataset  int
	dst      int
	size     float64
	priority int
	submit   sim.Time

	state   jobState
	retries int
	src     int             // chosen replica at admission
	xfer    *fluid.Transfer // the running transfer (nil unless running)
	hops    []fabric.Hop    // charged route (nil for host-local copies)
	shard   *shard

	// ckpt is the resume offset: bytes already acked at the destination.
	// A source crash preserves it (resume-from-acked-offset); a destination
	// crash zeroes it (the staging memory died with the host).
	ckpt float64
	// shed marks that the gray valve held this job at least once, so the
	// Shed tally counts jobs, not admission passes.
	shed bool
}

// Cluster is the assembled simulation: hosts on a fabric plus the sharded
// control plane.
type Cluster struct {
	Cfg  Config
	Eng  *sim.Engine
	FSim *fluid.Sim
	Topo *fabric.Topology

	// DecisionLat records wall-clock admission-pass latency in microseconds.
	// It never feeds back into the simulation or the trace.
	DecisionLat *metrics.Histogram

	// OnJobDone, when set, observes each job's committed completion (after
	// the exactly-once ledger is bumped). Voided completions — a landing on
	// a host that died before commit — do not fire it; the job restarts and
	// fires on its real completion. Jobs are numbered in Submit order.
	OnJobDone func(id int, now sim.Time)
	// OnJobLost observes jobs the control plane abandons (submit retries
	// exhausted, or every replica dead past the grace period).
	OnJobLost func(id int, now sim.Time)

	hosts    []*hostNode
	shards   []*shard
	tenants  []tenant
	jobs     []*job
	datasets [][]int // dataset → replica host ids

	ctlRng *rand.Rand // control-plane drops; drawn in event order only

	remaining int  // jobs not yet done or lost
	done      bool // true once every job retired (tickers stopped)

	// Failure-domain state. hostDown/crashedAt are physical truth (set the
	// instant a fault fires); deadDeclared/declaredAt are the control
	// plane's lagging view (set when the owner's detector trips).
	ownerOf      []int // host → owning shard id (reassigned at adoption)
	hostDown     []bool
	crashedAt    []sim.Time
	deadDeclared []bool
	declaredAt   []sim.Time
	completions  []int // per-job completion count (exactly-once audit)
	// undeclared counts hosts that are down but not yet declared dead, so
	// the detector costs nothing while no host is in that state.
	undeclared int

	partitioned bool
	partSide    []bool // per-shard partition side (true = severed group)

	// Gray-health state. limp is physical truth (the current core-speed
	// factor, 1 = nominal); hostSuspect is the scorer's statistical view.
	// The scorer and progress marks are allocated only when Cfg.Gray.
	limp         []float64
	gray         *metrics.PeerScorer
	hostProg     []float64
	hostSuspect  []bool
	shedding     bool
	firstHostSus sim.Time
	grayT        *sim.Ticker

	// Tally counts what the run did; Report carries a copy.
	Tally
}

// Tally counts a cluster run's control-plane, failure-plane, gray-plane and
// locality outcomes. Cluster accumulates it during the run and Report
// embeds a copy, so c.CtrlDrops and c.Report().CtrlDrops name one count.
// The counts are plain ints, not instruments, because they feed the report
// and the final trace lines.
type Tally struct {
	// Control-plane health.
	CtrlDrops   int
	CtrlResends int
	JobsLost    int
	Digests     int
	Adjusts     int

	// Failure-plane outcomes.
	HostFails    int // crash-stop events
	HostRestores int // cold restarts
	DeadDeclared int // owner detector declarations
	JobsRequeued int // running jobs pulled back to a queue (all causes)
	Reroutes     int // requeues caused by dead fabric links
	VoidedJobs   int // completions voided because the destination had died
	Elections    int // successful leader elections
	Adoptions    int // orphaned-shard takeovers
	StaleLeases  int // lease messages rejected by term/id ordering
	StaleAdjusts int // adjust broadcasts rejected as stale
	DegradedIn   int // degraded-mode entries
	DegradedOut  int // degraded-mode exits
	PartDrops    int // control messages severed by a partition
	CtrlFails    int // controller crash-stops

	// Gray-plane outcomes.
	HostLimps    int // limp-mode entries (LimpHost with factor < 1)
	HostSuspects int // scorer suspect verdicts
	HostClears   int // scorer exonerations
	Shed         int // jobs held at least once by the shed valve

	// Locality counts admitted jobs by where their replica sat relative to
	// the destination: on the host itself, its leaf, its pod, or across the
	// core (index localitySame..localityCore).
	Locality [4]int
}

// tenant is a workload principal with a fair-share weight.
type tenant struct {
	weight float64
}

const (
	localitySame = iota // replica on the destination host
	localityLeaf        // same leaf/edge switch
	localityPod         // same pod (fat-tree) / same leaf domain
	localityCore        // cross-fabric
)

// New assembles hosts, fabric, and shards. The workload is attached with
// Submit or by the Generate helper; Run drains everything.
func New(eng *sim.Engine, cfg Config) (*Cluster, error) {
	return newCluster(eng, cfg, workersPerHost)
}

// newCluster is New with the per-host worker count as a parameter.
func newCluster(eng *sim.Engine, cfg Config, workers int) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{
		Cfg:         cfg,
		Eng:         eng,
		FSim:        fluid.NewSim(eng),
		DecisionLat: metrics.NewHistogram(0.5),
		ctlRng:      rand.New(rand.NewSource(cfg.Seed ^ 0x5eedc0de)),
	}
	// Admission passes are timed on the wall clock; with the buckets
	// reserved up to 100 ms (the S5 decision-p99 bound), how slow a pass
	// runs cannot change what the run allocates.
	c.DecisionLat.Reserve(100_000)
	// Host h's one access NIC is fabric port h, homed on node 0.
	ports := make([]fabric.Endpoint, 0, cfg.Hosts)
	for i := 0; i < cfg.Hosts; i++ {
		hn, err := c.newHost(i, workers)
		if err != nil {
			return nil, err
		}
		c.hosts = append(c.hosts, hn)
		ports = append(ports, fabric.Endpoint{Host: hn.h, Node: hn.h.M.Node(0)})
	}
	tc := fabric.TopoConfig{
		Kind: cfg.Topology,
		HostLink: fabric.Config{
			Rate: units.FromGbps(hostGbps),
			RTT:  hostRTT,
		},
		HostsPerLeaf: hostsPerLeaf,
		Spines:       spines,
		K:            fatTreeK(cfg.Hosts),
		UplinkRate:   units.FromGbps(uplinkGbps),
		UplinkRTT:    uplinkRTT,
	}
	topo, err := fabric.BuildTopology(c.FSim, tc, ports)
	if err != nil {
		return nil, err
	}
	c.Topo = topo
	for k := 0; k < cfg.Shards; k++ {
		c.shards = append(c.shards, newShard(c, k))
	}
	c.ownerOf = make([]int, cfg.Hosts)
	c.hostDown = make([]bool, cfg.Hosts)
	c.crashedAt = make([]sim.Time, cfg.Hosts)
	c.deadDeclared = make([]bool, cfg.Hosts)
	c.declaredAt = make([]sim.Time, cfg.Hosts)
	for h := 0; h < cfg.Hosts; h++ {
		c.ownerOf[h] = h % cfg.Shards
		c.crashedAt[h] = -1
	}
	c.partSide = make([]bool, cfg.Shards)
	c.limp = make([]float64, cfg.Hosts)
	c.hostSuspect = make([]bool, cfg.Hosts)
	c.firstHostSus = -1
	for h := 0; h < cfg.Hosts; h++ {
		c.limp[h] = 1
	}
	if cfg.Gray {
		c.gray = newGrayScorer(cfg.Hosts)
		c.hostProg = make([]float64, cfg.Hosts)
	}
	// A dead switch trunk strands the flows routed over it; re-route them
	// as the ECMP tables reconverge. Access-link failures are host crashes
	// and go through the heartbeat detector instead.
	for _, l := range topo.Uplinks() {
		l := l
		l.Watch(func(ev fabric.Event) {
			if ev.Kind == fabric.EventDown {
				c.rerouteAround(l)
			}
		})
	}
	return c, nil
}

// newHost builds endpoint host i: machine, pooled workers, counters.
func (c *Cluster) newHost(i, workers int) (*hostNode, error) {
	name := fmt.Sprintf("host%04d", i)
	m, err := numa.New(c.FSim, numa.Config{
		Name:                  name,
		Nodes:                 numaNodes,
		CoresPerNode:          coresPerNode,
		CoreHz:                coreHz,
		MemBandwidthPerNode:   memGBps * 1e9,
		InterconnectBandwidth: interGBps * 1e9,
		RemoteAccessPenalty:   1.2,
		CoherencyWritePenalty: 1.3,
		MemBytes:              16 * units.GB,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: host %d: %w", i, err)
	}
	hn := &hostNode{id: i, h: host.New(name, m)}
	proc := hn.h.NewProcess("xfer", numa.PolicyBind, nil)
	for w := 0; w < workers; w++ {
		// One bound process per worker spreads workers round-robin over
		// nodes (PolicyBind + nil node), matching the paper's
		// numactl-per-node deployment.
		if w > 0 {
			proc = hn.h.NewProcess(fmt.Sprintf("xfer%d", w), numa.PolicyBind, nil)
		}
		t := proc.NewThread()
		hn.workers = append(hn.workers, t)
		hn.bufs = append(hn.bufs, m.NewBuffer(fmt.Sprintf("%s/w%d", name, w), t.Node()))
	}
	return hn, nil
}

// owner returns the shard currently owning host h. Ownership starts at
// h mod K and moves when a dead controller's hosts are adopted.
func (c *Cluster) owner(h int) *shard { return c.shards[c.ownerOf[h]] }

// severed reports whether a control-plane partition cuts shard a off from
// shard b. Severed sends drop deterministically — no loss coin is drawn, so
// partitions do not perturb the seeded drop sequence.
func (c *Cluster) severed(a, b int) bool {
	return c.partitioned && c.partSide[a] != c.partSide[b]
}

// sendCtrl delivers fn to shard `to` over the lossy control plane: severed
// partitions and dead controllers drop the message, the seeded loss coin
// may drop it, and survivors arrive after ctrlDelay. Reports acceptance.
func (c *Cluster) sendCtrl(from, to *shard, fn func()) bool {
	if !to.alive {
		return false
	}
	if c.severed(from.id, to.id) {
		c.PartDrops++
		return false
	}
	if c.dropped() {
		c.CtrlDrops++
		return false
	}
	c.Eng.Schedule(ctrlDelay, fn)
	return true
}

// AddTenants registers n tenants; tenant t gets weight 1 + t mod 4 (four
// service classes, as the S-series experiments use).
func (c *Cluster) AddTenants(n int) {
	for i := 0; i < n; i++ {
		c.tenants = append(c.tenants, tenant{weight: float64(1 + i%4)})
	}
	for _, sh := range c.shards {
		sh.growTenants(len(c.tenants))
	}
}

// AddDataset registers a dataset with replicas on the given hosts and
// returns its id.
func (c *Cluster) AddDataset(replicas []int) int {
	c.datasets = append(c.datasets, replicas)
	return len(c.datasets) - 1
}

// Submit schedules a job: at time at, the tenant's client sends the request
// to the shard owning the destination host (lossy RPC, bounded retries).
func (c *Cluster) Submit(at sim.Time, tenantID, dataset, dst int, size float64, priority int) *job {
	j := &job{
		id:       len(c.jobs),
		tenant:   tenantID,
		dataset:  dataset,
		dst:      dst,
		size:     size,
		priority: priority,
	}
	c.jobs = append(c.jobs, j)
	c.completions = append(c.completions, 0)
	c.remaining++
	c.Eng.At(at, func() { c.submitRPC(j) })
	return j
}

// submitRPC attempts delivery of j's submit message to its owning shard,
// retrying on (seeded) drops — and on a crashed controller, which answers
// nothing — until ctrlRetries is exhausted. Ownership is re-resolved on
// every retry, so submissions ride out a failover if their retry budget
// outlives the orphan window.
func (c *Cluster) submitRPC(j *job) {
	sh := c.owner(j.dst)
	// A dead controller is a deterministic timeout: no loss coin is drawn
	// for a socket nobody answers.
	if lost := !sh.alive || c.dropped(); lost {
		if sh.alive {
			c.CtrlDrops++
		}
		if j.retries >= ctrlRetries {
			j.state = jobLost
			c.JobsLost++
			if c.OnJobLost != nil {
				c.OnJobLost(j.id, c.Eng.Now())
			}
			c.jobFinished()
			c.Eng.Tracef("cluster", "job %d lost after %d retries", j.id, j.retries)
			return
		}
		j.retries++
		c.CtrlResends++
		c.Eng.Schedule(ctrlTimeout, func() { c.submitRPC(j) })
		return
	}
	c.Eng.Schedule(ctrlDelay, func() {
		j.submit = c.Eng.Now()
		// Ownership may have moved between send and delivery.
		c.owner(j.dst).enqueue(j)
	})
}

// dropped draws the control-plane loss coin. All draws happen inside
// engine events, so the sequence — and therefore every retry timeline — is
// a pure function of the seed.
func (c *Cluster) dropped() bool {
	if c.Cfg.DropPct <= 0 {
		return false
	}
	return c.ctlRng.Float64()*100 < c.Cfg.DropPct
}

// locality classifies a src→dst placement.
func (c *Cluster) locality(src, dst int) int {
	if src == dst {
		return localitySame
	}
	if c.Topo.SameLeaf(src, dst) {
		return localityLeaf
	}
	if c.Topo.PodIndex(src) == c.Topo.PodIndex(dst) {
		return localityPod
	}
	return localityCore
}

// start activates an admitted job: builds the flow over the chosen route
// and charges both endpoints' CPU/memory plus every fabric hop. A job with
// a checkpoint resumes: only size−ckpt bytes cross the wire again.
func (c *Cluster) start(j *job, sh *shard) {
	src, dst := c.hosts[j.src], c.hosts[j.dst]
	srcT, srcBuf := src.worker()
	dstT, dstBuf := dst.worker()
	f := c.FSim.NewFlow(fmt.Sprintf("job%06d", j.id), units.FromGbps(perJobGbps))
	loc := c.locality(j.src, j.dst)
	c.Locality[loc]++
	if loc == localitySame {
		// Replica already on the destination host: a local NUMA copy.
		dstT.ChargeCopy(f, srcBuf, dstBuf, 1, cpuPerByte, host.CatCopy)
		j.hops = nil
	} else {
		hops := c.Topo.Route(j.src, j.dst, uint64(j.id))
		j.hops = hops
		fabric.ChargeRoute(f, hops, 1, "wire")
		srcT.ChargeCPU(f, cpuPerByte, host.CatUser)
		srcT.ChargeMemory(f, srcBuf, 1, false, host.CatUser)
		c.Topo.PortLinks[j.src].A.ChargeDMA(f, srcBuf, 1, false, "dma")
		dstT.ChargeCPU(f, cpuPerByte, host.CatUser)
		dstT.ChargeMemory(f, dstBuf, 1, true, host.CatUser)
		c.Topo.PortLinks[j.dst].A.ChargeDMA(f, dstBuf, 1, true, "dma")
	}
	src.srcActive++
	dst.dstActive++
	j.state = jobRunning
	j.shard = sh
	remaining := j.size - j.ckpt
	if remaining <= 0 {
		// The crash landed between the last byte and the completion event;
		// re-ack the tail rather than special-casing an empty transfer.
		remaining = 1
	}
	if j.ckpt > 0 {
		c.Eng.Tracef("cluster", "shard %d resumes job %d tenant %d %s→%s from %.0f/%.0f",
			sh.id, j.id, j.tenant, src.h.Name, dst.h.Name, j.ckpt, j.size)
	} else if c.Eng.Tracing() {
		c.Eng.Tracef("cluster", "shard %d starts job %d tenant %d %s→%s (%s, loc %d)",
			sh.id, j.id, j.tenant, src.h.Name, dst.h.Name, units.FormatBytes(int64(j.size)), loc)
	}
	j.xfer = &fluid.Transfer{
		Flow:       f,
		Remaining:  remaining,
		OnComplete: func(now sim.Time) { c.finish(j, now) },
	}
	c.FSim.Start(j.xfer)
}

// finish handles transfer completion: accounting, fair-share bookkeeping,
// and re-admission kicks for the shards whose hosts freed capacity. A
// completion racing a destination crash is voided — the landing never
// committed — and the job restarts from zero on the recovery path, which
// is what keeps delivery exactly-once instead of at-most-once.
func (c *Cluster) finish(j *job, now sim.Time) {
	src, dst := c.hosts[j.src], c.hosts[j.dst]
	if c.hostDown[j.dst] {
		src.srcActive--
		dst.dstActive--
		j.ckpt = 0
		j.xfer, j.hops = nil, nil
		c.VoidedJobs++
		c.JobsRequeued++
		c.Eng.Tracef("cluster", "job %d completion voided: %s died before commit", j.id, dst.h.Name)
		j.shard.removeRunning(j)
		j.shard.insert(j)
		return
	}
	src.srcActive--
	dst.dstActive--
	dst.delivered += j.size
	j.state = jobDone
	c.completions[j.id]++
	j.shard.jobDone(j)
	if c.Eng.Tracing() {
		c.Eng.Tracef("cluster", "job %d done (%s to %s)", j.id, units.FormatBytes(int64(j.size)), dst.h.Name)
	}
	if c.OnJobDone != nil {
		c.OnJobDone(j.id, now)
	}
	c.jobFinished()
	if c.remaining > 0 {
		c.owner(j.src).admit()
		if c.owner(j.dst) != c.owner(j.src) {
			c.owner(j.dst).admit()
		}
	}
}

// jobFinished retires one job; at zero the control plane's tickers stop so
// the event queue can drain.
func (c *Cluster) jobFinished() {
	c.remaining--
	if c.remaining == 0 {
		c.done = true
		for _, sh := range c.shards {
			sh.stop()
		}
		if c.grayT != nil {
			c.grayT.Stop()
		}
		c.Eng.Tracef("cluster", "all jobs retired at %.6f", float64(c.Eng.Now()))
	}
}

// Run drives the simulation until every job is done or lost and the event
// queue drains.
func (c *Cluster) Run() {
	for _, sh := range c.shards {
		sh.startTickers()
	}
	if c.Cfg.Gray {
		c.grayT = c.Eng.NewTicker(grayEvery, c.scoreHosts)
	}
	c.Eng.Run()
	c.FSim.Sync()
	// A final deterministic counters line folds aggregate outcomes into the
	// trace, so replay verification covers accounting — including the whole
	// failure plane — not just event order.
	c.Eng.Tracef("cluster", "final delivered=%.0f drops=%d resends=%d lost=%d digests=%d adjusts=%d loc=%v",
		c.deliveredBytes(), c.CtrlDrops, c.CtrlResends,
		c.JobsLost, c.Digests, c.Adjusts, c.Locality)
	c.Eng.Tracef("cluster", "final failures hostfail=%d restore=%d declared=%d requeued=%d rerouted=%d voided=%d elections=%d adoptions=%d stale=%d/%d degraded=%d/%d partdrops=%d",
		c.HostFails, c.HostRestores, c.DeadDeclared, c.JobsRequeued, c.Reroutes,
		c.VoidedJobs, c.Elections, c.Adoptions, c.StaleLeases, c.StaleAdjusts,
		c.DegradedIn, c.DegradedOut, c.PartDrops)
	c.Eng.Tracef("cluster", "final gray limps=%d suspects=%d clears=%d shed=%d",
		c.HostLimps, c.HostSuspects, c.HostClears, c.Shed)
}

// HostForKey deterministically routes an object key onto a host: FNV-1a
// over the key, mod the host count. The objstore gateway shards tenant
// namespaces across the cluster with it; pinning a (tenant, key-range) to
// one host is what lets adjacent small objects coalesce into one job.
func HostForKey(key string, hosts int) int {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime
	}
	return int(h % uint64(hosts))
}

// HostForKey routes an object key onto one of this cluster's hosts.
func (c *Cluster) HostForKey(key string) int { return HostForKey(key, len(c.hosts)) }

// NextJobID returns the id the next Submit call will assign (jobs are
// numbered in submission order), so callers can correlate OnJobDone
// callbacks with their own bookkeeping.
func (c *Cluster) NextJobID() int { return len(c.jobs) }

// Hosts returns the number of simulated hosts.
func (c *Cluster) Hosts() int { return len(c.hosts) }

// Jobs returns the number of submitted jobs.
func (c *Cluster) Jobs() int { return len(c.jobs) }

// Tenants returns the number of registered tenants.
func (c *Cluster) Tenants() int { return len(c.tenants) }
