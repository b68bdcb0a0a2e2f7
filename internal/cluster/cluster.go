// Package cluster scales the simulation from the paper's one back-end→
// front-end path to a datacenter: N simulated hosts — each a real NUMA
// machine with bound worker threads and rail NICs — attached to a generated
// multi-stage fabric topology, driven by a sharded transfer control plane.
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
	"math"
	"math/rand"

	"e2edt/internal/fabric"
	"e2edt/internal/fluid"
	"e2edt/internal/host"
	"e2edt/internal/metrics"
	"e2edt/internal/numa"
	"e2edt/internal/sim"
	"e2edt/internal/units"
)

// Config shapes the cluster: topology, per-host hardware, transfer-path
// coefficients, and control-plane behavior.
type Config struct {
	// Hosts is the number of simulated endpoint hosts.
	Hosts int
	// Shards is the number of control-plane shards (K ≥ 1). Host h is owned
	// by shard h mod K.
	Shards int

	// Topology selects the fabric family; the shape fields below default to
	// a mildly oversubscribed datacenter pod.
	Topology     fabric.TopoKind
	HostsPerLeaf int     // leaf-spine ports per leaf (default 32)
	Spines       int     // leaf-spine spine count (default 4)
	FatTreeK     int     // fat-tree arity (default: smallest even k fitting Hosts×Rails)
	HostGbps     float64 // access-link rate (default 10)
	UplinkGbps   float64 // switch-stage rate (default 40)
	HostRTT      sim.Duration
	UplinkRTT    sim.Duration

	// Rails is the number of access NICs per host; rails attach to the
	// fabric as independent ports and jobs hash across them.
	Rails int

	// Per-host hardware (small on purpose: a thousand hosts share one
	// solver, so each host models 2×2 cores, not 2×22).
	NUMANodes    int
	CoresPerNode int
	CoreHz       float64
	MemGBps      float64 // per-node memory bandwidth
	InterGBps    float64 // inter-socket interconnect bandwidth
	Workers      int     // bound worker threads per host (pooled, round-robin)

	// CPUPerByte is the protocol-processing cost charged on both endpoints'
	// workers (cycles per byte).
	CPUPerByte float64
	// PerJobGbps caps each transfer's rate (admission reservation; also
	// freezes flows early, which keeps the max-min solver cheap).
	PerJobGbps float64
	// MaxPerHost bounds concurrently admitted jobs per host per direction.
	MaxPerHost int
	// NoFlowClasses disables same-route job pooling: every job gets its
	// own fluid flow, as before flow-class aggregation. Jobs whose charged
	// resource sets coincide exactly (same tenant, shard, ECMP path and
	// worker pair) normally share one class flow and disaggregate through
	// per-member rates; the knob exists for the equivalence tests.
	NoFlowClasses bool

	// Control-plane model.
	DropPct        float64      // control-RPC drop percentage (0–100)
	CtrlDelay      sim.Duration // one-way control message delay
	CtrlTimeout    sim.Duration // retransmit timer for reliable RPCs
	CtrlRetries    int          // submit retries before a job is lost
	ReconcileEvery sim.Duration // digest/adjust reconciliation interval

	// Failure-domain model.
	//
	// Hosts heartbeat to their owning shard every HeartbeatEvery. Beats are
	// tiny and sprayed, so the model treats the channel as reliable and
	// represents the detector by its latency: the owner declares a host
	// dead once MissedBeats intervals pass without a beat.
	HeartbeatEvery sim.Duration // host heartbeat interval (default 0.5)
	MissedBeats    int          // missed intervals before a host is declared dead (default 3)
	// Leadership is a lease: the leader broadcasts term-stamped leases
	// every LeaseEvery; a follower that hears nothing for LeaseTimeout
	// enters degraded mode (adjust clamped to 1, local weighted fair share)
	// and runs for leader after a deterministic per-shard stagger of
	// ElectStagger × (id+1).
	LeaseEvery   sim.Duration // leader lease broadcast interval (default 0.5)
	LeaseTimeout sim.Duration // lease age at which a follower degrades/runs (default 2)
	ElectStagger sim.Duration // per-shard candidacy stagger unit (default 0.5)
	// GiveUpAfter bounds how long a queued job waits on a declared-dead
	// destination (or an all-dead replica set) before it is marked lost, so
	// a permanent crash cannot wedge the run (default 30).
	GiveUpAfter sim.Duration

	// Gray arms the host outlier scorer and the admission shed valve for
	// limping-but-alive hosts. Zero value: fully inert.
	Gray GrayConfig

	// Seed drives workload generation and RPC drops.
	Seed int64
}

// Validate rejects configurations that previous versions silently
// "corrected": a zero-shard control plane, a negative or certain-loss drop
// rate, negative model durations. SetDefaults still fills zero shape
// fields; Validate draws the line between "unset" and "wrong".
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
	if c.Rails < 0 {
		return fmt.Errorf("cluster: Rails must not be negative, got %d", c.Rails)
	}
	if c.CtrlRetries < 0 {
		return fmt.Errorf("cluster: CtrlRetries must not be negative, got %d", c.CtrlRetries)
	}
	if c.MissedBeats < 0 {
		return fmt.Errorf("cluster: MissedBeats must not be negative, got %d", c.MissedBeats)
	}
	if c.Gray.Enabled && c.Gray.SuspectBelow > 0 && c.Gray.ClearAbove > 0 &&
		c.Gray.SuspectBelow >= c.Gray.ClearAbove {
		return fmt.Errorf("cluster: Gray.SuspectBelow (%g) must sit below Gray.ClearAbove (%g) — the gap is the hysteresis band",
			c.Gray.SuspectBelow, c.Gray.ClearAbove)
	}
	for _, d := range []struct {
		name string
		v    sim.Duration
	}{
		{"HostRTT", c.HostRTT}, {"UplinkRTT", c.UplinkRTT},
		{"CtrlDelay", c.CtrlDelay}, {"CtrlTimeout", c.CtrlTimeout},
		{"ReconcileEvery", c.ReconcileEvery}, {"HeartbeatEvery", c.HeartbeatEvery},
		{"LeaseEvery", c.LeaseEvery}, {"LeaseTimeout", c.LeaseTimeout},
		{"ElectStagger", c.ElectStagger}, {"GiveUpAfter", c.GiveUpAfter},
		{"Gray.Every", c.Gray.Every},
	} {
		if d.v < 0 {
			return fmt.Errorf("cluster: %s must not be negative, got %g", d.name, float64(d.v))
		}
	}
	return nil
}

// SetDefaults fills zero fields with the standard cluster profile. It does
// not repair invalid values — Validate rejects those.
func (c *Config) SetDefaults() {
	if c.HostsPerLeaf <= 0 {
		c.HostsPerLeaf = 32
	}
	if c.Spines <= 0 {
		c.Spines = 4
	}
	if c.HostGbps <= 0 {
		c.HostGbps = 10
	}
	if c.UplinkGbps <= 0 {
		c.UplinkGbps = 40
	}
	if c.HostRTT <= 0 {
		c.HostRTT = 20e-6
	}
	if c.UplinkRTT <= 0 {
		c.UplinkRTT = 10e-6
	}
	if c.Rails <= 0 {
		c.Rails = 1
	}
	if c.FatTreeK <= 0 {
		ports := c.Hosts * c.Rails
		k := 4
		for k*k*k/4 < ports {
			k += 2
		}
		c.FatTreeK = k
	}
	if c.NUMANodes <= 0 {
		c.NUMANodes = 2
	}
	if c.CoresPerNode <= 0 {
		c.CoresPerNode = 2
	}
	if c.CoreHz <= 0 {
		c.CoreHz = 2.2e9
	}
	if c.MemGBps <= 0 {
		c.MemGBps = 25
	}
	if c.InterGBps <= 0 {
		c.InterGBps = 12
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.CPUPerByte <= 0 {
		c.CPUPerByte = 0.3
	}
	if c.PerJobGbps <= 0 {
		c.PerJobGbps = 5
	}
	if c.MaxPerHost <= 0 {
		c.MaxPerHost = 2
	}
	if c.CtrlDelay <= 0 {
		c.CtrlDelay = 100e-6
	}
	if c.CtrlTimeout <= 0 {
		c.CtrlTimeout = 10e-3
	}
	if c.CtrlRetries <= 0 {
		c.CtrlRetries = 30
	}
	if c.ReconcileEvery <= 0 {
		c.ReconcileEvery = 0.25
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 0.5
	}
	if c.MissedBeats <= 0 {
		c.MissedBeats = 3
	}
	if c.LeaseEvery <= 0 {
		c.LeaseEvery = 0.5
	}
	if c.LeaseTimeout <= 0 {
		c.LeaseTimeout = 2
	}
	if c.ElectStagger <= 0 {
		c.ElectStagger = 0.5
	}
	if c.GiveUpAfter <= 0 {
		c.GiveUpAfter = 30
	}
	if c.Gray.Enabled {
		c.Gray = c.Gray.withDefaults()
	}
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

	delivered *metrics.Counter // bytes landed on this host
	srcJobs   *metrics.Counter
	dstJobs   *metrics.Counter
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
	src     int // chosen replica at admission
	flow    *fluid.Flow
	xfer    *fluid.Transfer
	hops    []fabric.Hop // charged route (nil for host-local copies)
	shard   *shard
	// class is the flow-class pool entry the job joined (nil when the job
	// runs on a private flow: pooling disabled or a signature collision).
	class *classEntry

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

	// Registry aggregates every host's namespaced instruments plus
	// cluster-level ones; per-host counters are registered under
	// "host%04d/" so a thousand hosts never collide.
	Registry *metrics.Registry

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

	// classes pools jobs whose charged resource sets coincide exactly into
	// one fluid flow class per (shard, tenant, route) signature, so the
	// solver sees O(classes) flows instead of O(jobs). Lookups are keyed
	// only — never iterated — so the map cannot leak nondeterminism.
	classes map[uint64]*classEntry

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

	partitioned bool
	partSide    []bool // per-shard partition side (true = severed group)

	// Gray-health state. limp is physical truth (the current core-speed
	// factor, 1 = nominal); hostSuspect is the scorer's statistical view.
	// The rate arrays are allocated only when Cfg.Gray.Enabled.
	limp         []float64
	hostRate     []*metrics.EWMA
	hostRatio    []float64
	hostProg     []float64
	hostBreach   []int
	hostClear    []int
	hostSuspect  []bool
	shedding     bool
	firstHostSus sim.Time
	grayT        *sim.Ticker

	// Control-plane tallies (ints, not instruments: they feed the report).
	CtrlDrops   int
	CtrlResends int
	JobsLost    int
	Digests     int
	Adjusts     int
	PooledJoins int // jobs that attached to an existing flow class

	// Failure-plane tallies.
	HostFails     int // crash-stop events
	HostRestores  int // cold restarts
	DeadDeclared  int // owner detector declarations
	JobsRequeued  int // running jobs pulled back to a queue (all causes)
	Reroutes      int // requeues caused by dead fabric links
	VoidedJobs    int // completions voided because the destination had died
	Elections     int // successful leader elections
	Adoptions     int // orphaned-shard takeovers
	StaleLeases   int // lease messages rejected by term/id ordering
	StaleAdjusts  int // adjust broadcasts rejected as stale
	DegradedIn    int // degraded-mode entries
	DegradedOut   int // degraded-mode exits
	PartDrops     int // control messages severed by a partition
	CtrlFailCount int // controller crash-stops

	// Gray-plane tallies.
	HostLimps    int // limp-mode entries (LimpHost with factor < 1)
	HostSuspects int // scorer suspect verdicts
	HostClears   int // scorer exonerations
	Shed         int // jobs held at least once by the shed valve

	// Locality outcome histogram (index localitySame..localityCore).
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
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.SetDefaults()
	c := &Cluster{
		Cfg:         cfg,
		Eng:         eng,
		FSim:        fluid.NewSim(eng),
		Registry:    metrics.NewRegistry(),
		DecisionLat: metrics.NewHistogram(0.5),
		classes:     make(map[uint64]*classEntry),
		ctlRng:      rand.New(rand.NewSource(cfg.Seed ^ 0x5eedc0de)),
	}
	// Cluster runs fire tens of thousands of heartbeat, probe, digest and
	// control-RPC delivery events per virtual second, all within a couple
	// of control-plane periods of "now". Park them in a timer wheel sized
	// to cover those periods; the heap keeps only sparse far-future events
	// (lease grace, GiveUpAfter).
	if slot := cfg.HeartbeatEvery / 256; slot > 0 {
		if slot < cfg.CtrlDelay {
			slot = cfg.CtrlDelay
		}
		eng.EnableTimerWheel(slot, 1024)
	}
	ports := make([]fabric.Endpoint, 0, cfg.Hosts*cfg.Rails)
	for i := 0; i < cfg.Hosts; i++ {
		hn, err := c.newHost(i)
		if err != nil {
			return nil, err
		}
		c.hosts = append(c.hosts, hn)
		for r := 0; r < cfg.Rails; r++ {
			node := hn.h.M.Node(r % cfg.NUMANodes)
			ports = append(ports, fabric.Endpoint{Host: hn.h, Node: node})
		}
	}
	tc := fabric.TopoConfig{
		Kind: cfg.Topology,
		HostLink: fabric.Config{
			Rate: units.FromGbps(cfg.HostGbps),
			RTT:  cfg.HostRTT,
		},
		HostsPerLeaf: cfg.HostsPerLeaf,
		Spines:       cfg.Spines,
		K:            cfg.FatTreeK,
		UplinkRate:   units.FromGbps(cfg.UplinkGbps),
		UplinkRTT:    cfg.UplinkRTT,
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
	c.hostRatio = make([]float64, cfg.Hosts)
	c.firstHostSus = -1
	for h := 0; h < cfg.Hosts; h++ {
		c.limp[h] = 1
		c.hostRatio[h] = 1
	}
	if cfg.Gray.Enabled {
		c.hostRate = make([]*metrics.EWMA, cfg.Hosts)
		c.hostProg = make([]float64, cfg.Hosts)
		c.hostBreach = make([]int, cfg.Hosts)
		c.hostClear = make([]int, cfg.Hosts)
		for h := 0; h < cfg.Hosts; h++ {
			c.hostRate[h] = metrics.NewEWMA(cfg.Gray.Decay)
		}
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
func (c *Cluster) newHost(i int) (*hostNode, error) {
	cfg := c.Cfg
	name := fmt.Sprintf("host%04d", i)
	m, err := numa.New(c.FSim, numa.Config{
		Name:                  name,
		Nodes:                 cfg.NUMANodes,
		CoresPerNode:          cfg.CoresPerNode,
		CoreHz:                cfg.CoreHz,
		MemBandwidthPerNode:   cfg.MemGBps * 1e9,
		InterconnectBandwidth: cfg.InterGBps * 1e9,
		RemoteAccessPenalty:   1.2,
		CoherencyWritePenalty: 1.3,
		MemBytes:              16 * units.GB,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: host %d: %w", i, err)
	}
	hn := &hostNode{id: i, h: host.New(name, m)}
	proc := hn.h.NewProcess("xfer", numa.PolicyBind, nil)
	for w := 0; w < cfg.Workers; w++ {
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
	ns := c.Registry.Namespace(name)
	hn.delivered = ns.MustCounter("delivered_bytes")
	hn.srcJobs = ns.MustCounter("src_jobs")
	hn.dstJobs = ns.MustCounter("dst_jobs")
	return hn, nil
}

// port returns the fabric port index for host h, rail r.
func (c *Cluster) port(h, rail int) int { return h*c.Cfg.Rails + rail }

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
// may drop it, and survivors arrive after CtrlDelay. Reports acceptance.
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
	c.Eng.Schedule(c.Cfg.CtrlDelay, fn)
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
// nothing — until CtrlRetries is exhausted. Ownership is re-resolved on
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
		if j.retries >= c.Cfg.CtrlRetries {
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
		c.Eng.Schedule(c.Cfg.CtrlTimeout, func() { c.submitRPC(j) })
		return
	}
	c.Eng.Schedule(c.Cfg.CtrlDelay, func() {
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
	sp, dp := c.port(src, 0), c.port(dst, 0)
	if c.Topo.SameLeaf(sp, dp) {
		return localityLeaf
	}
	if c.Topo.PodIndex(sp) == c.Topo.PodIndex(dp) {
		return localityPod
	}
	return localityCore
}

// classEntry is one pooled flow class: jobs whose charged resource sets
// coincide exactly attach as member streams of a single fluid flow and the
// solver disaggregates per-member rates for free.
type classEntry struct {
	sig  uint64
	flow *fluid.Flow
	jobs int
}

// classSig hashes the pooling key: owning shard, tenant (fair-share weights
// are per-tenant per-shard, so members must share both) and the exact
// charged resource set. FNV-1a over deterministic resource indices, so the
// signature is identical across replays.
func classSig(shard, tenant int, uses []fluid.Usage) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	mix := func(v uint64) {
		h ^= v
		h *= prime
	}
	mix(uint64(shard))
	mix(uint64(tenant))
	for _, u := range uses {
		mix(uint64(u.Resource.Index()))
		mix(math.Float64bits(u.Coeff))
	}
	return h
}

// sameUses reports whether two charged resource sets are identical — the
// collision check behind the signature hash.
func sameUses(a, b []fluid.Usage) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Resource != b[i].Resource || a[i].Coeff != b[i].Coeff || a[i].Tag != b[i].Tag {
			return false
		}
	}
	return true
}

// releaseClass drops a job's hold on its pool entry once the fluid side has
// detached its member transfer; the entry dies with its last member.
func (c *Cluster) releaseClass(j *job) {
	if j.class == nil {
		return
	}
	j.class.jobs--
	if j.class.jobs <= 0 && c.classes[j.class.sig] == j.class {
		// Identity check: a stale entry (flow detached before this release
		// ran) may already have been displaced by a fresh class under the
		// same signature — that one must survive this delete.
		delete(c.classes, j.class.sig)
	}
	j.class = nil
}

// start activates an admitted job: builds the flow over the chosen route
// and charges both endpoints' CPU/memory plus every fabric hop. A job with
// a checkpoint resumes: only size−ckpt bytes cross the wire again.
func (c *Cluster) start(j *job, sh *shard) {
	src, dst := c.hosts[j.src], c.hosts[j.dst]
	srcT, srcBuf := src.worker()
	dstT, dstBuf := dst.worker()
	f := c.FSim.NewFlow(fmt.Sprintf("job%06d", j.id), units.FromGbps(c.Cfg.PerJobGbps))
	j.flow = f
	loc := c.locality(j.src, j.dst)
	c.Locality[loc]++
	if loc == localitySame {
		// Replica already on the destination host: a local NUMA copy.
		dstT.ChargeCopy(f, srcBuf, dstBuf, 1, c.Cfg.CPUPerByte, host.CatCopy)
		j.hops = nil
	} else {
		rail := int(uint64(j.id) % uint64(c.Cfg.Rails))
		sp, dp := c.port(j.src, rail), c.port(j.dst, rail)
		hops := c.Topo.Route(sp, dp, uint64(j.id))
		j.hops = hops
		fabric.ChargeRoute(f, hops, 1, "wire")
		srcT.ChargeCPU(f, c.Cfg.CPUPerByte, host.CatUser)
		srcT.ChargeMemory(f, srcBuf, 1, false, host.CatUser)
		c.Topo.PortLinks[sp].A.ChargeDMA(f, srcBuf, 1, false, "dma")
		dstT.ChargeCPU(f, c.Cfg.CPUPerByte, host.CatUser)
		dstT.ChargeMemory(f, dstBuf, 1, true, host.CatUser)
		c.Topo.PortLinks[dp].A.ChargeDMA(f, dstBuf, 1, true, "dma")
	}
	if !c.Cfg.NoFlowClasses {
		sig := classSig(sh.id, j.tenant, f.Uses)
		ent, ok := c.classes[sig]
		if ok && !c.FSim.Network.Registered(ent.flow) {
			// The entry's flow already detached: its last member completed
			// in this very event and the finish callback that would retire
			// the entry is still pending behind us in the callback queue.
			// Joining would attach this job to a flow the solver no longer
			// sees — rate zero forever. Found a fresh class instead; the
			// pending releaseClass only deletes its own entry.
			ok = false
		}
		if ok {
			if sameUses(ent.flow.Uses, f.Uses) {
				// Another job already runs this exact resource path:
				// discard the freshly built twin and join its class.
				c.FSim.Network.RemoveFlow(f)
				f = ent.flow
				j.flow = f
				ent.jobs++
				j.class = ent
				c.PooledJoins++
			}
			// Signature collision with different uses: run unpooled.
		} else {
			ent := &classEntry{sig: sig, flow: f, jobs: 1}
			c.classes[sig] = ent
			j.class = ent
		}
	}
	src.srcActive++
	dst.dstActive++
	src.srcJobs.Add(1)
	dst.dstJobs.Add(1)
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
	} else {
		c.Eng.Tracef("cluster", "shard %d starts job %d tenant %d %s→%s (%s, loc %d)",
			sh.id, j.id, j.tenant, src.h.Name, dst.h.Name, units.FormatBytes(int64(j.size)), loc)
	}
	j.xfer = &fluid.Transfer{
		Flow:       f,
		Remaining:  remaining,
		OnComplete: func(now sim.Time) { c.finish(j, now) },
	}
	if j.class != nil {
		c.FSim.StartMember(j.xfer)
	} else {
		c.FSim.Start(j.xfer)
	}
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
		c.releaseClass(j)
		j.xfer, j.flow, j.hops = nil, nil, nil
		c.VoidedJobs++
		c.JobsRequeued++
		c.Eng.Tracef("cluster", "job %d completion voided: %s died before commit", j.id, dst.h.Name)
		j.shard.removeRunning(j)
		j.shard.insert(j)
		return
	}
	src.srcActive--
	dst.dstActive--
	dst.delivered.Add(j.size)
	c.releaseClass(j)
	j.state = jobDone
	c.completions[j.id]++
	j.shard.jobDone(j)
	c.Eng.Tracef("cluster", "job %d done (%s to %s)", j.id, units.FormatBytes(int64(j.size)), dst.h.Name)
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
	if c.Cfg.Gray.Enabled {
		c.grayT = c.Eng.NewTicker(c.Cfg.Gray.Every, func(now sim.Time) { c.scoreHosts(now) })
	}
	c.Eng.Run()
	c.FSim.Sync()
	// A final deterministic counters line folds aggregate outcomes into the
	// trace, so replay verification covers accounting — including the whole
	// failure plane — not just event order.
	c.Eng.Tracef("cluster", "final delivered=%.0f drops=%d resends=%d lost=%d digests=%d adjusts=%d loc=%v",
		c.Registry.SumCounters("delivered_bytes"), c.CtrlDrops, c.CtrlResends,
		c.JobsLost, c.Digests, c.Adjusts, c.Locality)
	c.Eng.Tracef("cluster", "final failures hostfail=%d restore=%d declared=%d requeued=%d rerouted=%d voided=%d elections=%d adoptions=%d stale=%d/%d degraded=%d/%d partdrops=%d",
		c.HostFails, c.HostRestores, c.DeadDeclared, c.JobsRequeued, c.Reroutes,
		c.VoidedJobs, c.Elections, c.Adoptions, c.StaleLeases, c.StaleAdjusts,
		c.DegradedIn, c.DegradedOut, c.PartDrops)
	// Gray-plane summary only when the plane could have acted: a legacy run
	// must not gain a single trace byte.
	if c.Cfg.Gray.Enabled || c.HostLimps > 0 {
		c.Eng.Tracef("cluster", "final gray limps=%d suspects=%d clears=%d shed=%d",
			c.HostLimps, c.HostSuspects, c.HostClears, c.Shed)
	}
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
