// Package xfersched is a multi-tenant transfer scheduling service layered
// on core.System: the missing tier between "one dataset, two endpoints"
// (the paper's RFTP) and a datacenter transfer service that multiplexes
// many tenants' jobs over shared RDMA resources.
//
// The scheduler accepts a stream of submitted jobs (tenant, dataset size,
// protocol RFTP or GridFTP, direction, priority, optional deadline) and
// drives them through three mechanisms, all in deterministic virtual time:
//
//   - Admission control: at most MaxConcurrent jobs run at once and each
//     admitted job reserves a nominal slice of the front-end fabric (its
//     payload capacity over MaxConcurrent); everything else waits in a
//     priority + earliest-deadline + FIFO queue. Per-job SAN files are
//     allocated at admission, so filesystem capacity is a third admission
//     dimension.
//
//   - Weighted fair-share arbitration: a global budget of RFTP streams is
//     re-divided among the running jobs whenever one starts or finishes.
//     Each tenant's weight is split across its active jobs, so a tenant
//     with twice the weight holds twice the streams regardless of how many
//     jobs it queues. Jobs whose allocation changes are checkpointed
//     (bytes moved so far) and restarted from that byte offset with the
//     new stream count, paying a fresh session handshake — rebalancing has
//     a cost, exactly as it would on the wire.
//
//   - Failure-driven retry: a watchdog samples per-job progress; a job
//     that moves nothing for StallAfter (a failed fabric.Link, a dark SAN)
//     is stopped, its completed bytes are folded into the job, and it is
//     requeued with exponential backoff in virtual time (0.5 s doubling to
//     8 s, at most 12 attempts). Retried attempts
//     resume from the byte offset already moved (rftp.Params.StartOffset),
//     so no byte is paid for twice.
//
// Determinism: the scheduler introduces no randomness of its own and
// iterates only ordered structures, so the same job trace on the same
// system produces a bit-identical schedule (see determinism_test.go).
package xfersched

import (
	"fmt"
	"math"
	"sort"

	"e2edt/internal/core"
	"e2edt/internal/faults"
	"e2edt/internal/fsim"
	"e2edt/internal/gridftp"
	"e2edt/internal/metrics"
	"e2edt/internal/rftp"
	"e2edt/internal/sim"
)

// Protocol selects the transfer tool a job uses.
type Protocol int

const (
	// ProtoRFTP moves the job with the paper's RDMA protocol.
	ProtoRFTP Protocol = iota
	// ProtoGridFTP moves the job with the TCP baseline tool.
	ProtoGridFTP
)

// String names the protocol.
func (p Protocol) String() string {
	if p == ProtoGridFTP {
		return "gridftp"
	}
	return "rftp"
}

// State is a job's lifecycle position.
type State int

const (
	// StateQueued: submitted, waiting for admission.
	StateQueued State = iota
	// StateRunning: admitted, transfer in flight.
	StateRunning
	// StateBackoff: stalled, waiting out its retry delay.
	StateBackoff
	// StateDone: all bytes delivered.
	StateDone
	// StateLost: gave up after maxAttempts stalls.
	StateLost
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateBackoff:
		return "backoff"
	case StateDone:
		return "done"
	default:
		return "lost"
	}
}

// JobSpec describes one submitted transfer job.
type JobSpec struct {
	// ID uniquely names the job (also names its SAN files).
	ID string
	// Tenant is the submitting tenant; unknown tenants get weight 1.
	Tenant string
	// Protocol selects RFTP or GridFTP.
	Protocol Protocol
	// Dir is the transfer direction across the front-end fabric.
	Dir core.Direction
	// Bytes is the dataset size. Zero is legal (an empty object's job):
	// the job completes at admission without touching the wire.
	Bytes int64
	// Files is the dataset's file count (granularity metadata carried into
	// reports; the transfer itself moves the aggregate byte stream).
	Files int
	// Objects, when non-empty, makes this a coalesced object-batch job
	// (RFTP only): the window moves every object over one session with
	// in-band delimiting and exactly-once per-object completion. Bytes is
	// derived from the object sizes; zero-size objects are legal. The
	// window is an rftp.Transfer like a plain RFTP job's, so in-protocol
	// recovery, rail failover and the OnFailure fast path apply to it.
	// Batch jobs hold a fixed stream count (like GridFTP jobs, they are not
	// rebalanced — a restart re-handshakes the window), and retries resume
	// from the undelivered object set.
	Objects []rftp.ObjectSpec
	// OnObject observes per-object completions of a batch job, exactly
	// once per object index across all attempts.
	OnObject func(i int, now sim.Time)
	// Priority orders the queue; higher runs first.
	Priority int
	// Deadline is a relative completion target (0 = none). Missing it is
	// recorded, not enforced.
	Deadline sim.Duration
}

// Job is a submitted job's live state.
type Job struct {
	Spec JobSpec
	// State is the current lifecycle position.
	State State
	// Submitted, FirstStart and Finished are virtual timestamps; FirstStart
	// is zero until first admission, Finished until completion.
	Submitted, FirstStart, Finished sim.Time
	// Retries counts failure-driven requeues (rebalancing restarts are not
	// retries).
	Retries int
	// DeadlineMissed records a blown Deadline.
	DeadlineMissed bool

	moved    float64 // bytes delivered across all attempts
	streams  int     // current stream allocation (RFTP jobs)
	attempt  int     // monotonically counts transfer starts
	reserved float64 // admission bandwidth held
	handle   handle
	rt       *rftp.Transfer // concrete RFTP handle (recovery stats, OnFailure)
	src, dst *fsim.File

	folded      rftp.Stats // recovery counters of finished attempts
	suspects    int        // gray suspect verdicts, finished attempts
	stallBudget sim.Duration

	lastProgress   float64
	lastProgressAt sim.Time
	backoff        *sim.Timer

	// Batch-job object ledger: which object indices have been delivered
	// (exactly-once across attempts) and how many.
	objDone      []bool
	objDoneCount int
}

// isBatch reports whether the job is a coalesced object window.
func (j *Job) isBatch() bool { return len(j.Spec.Objects) > 0 }

// workDone reports whether the job's payload is fully delivered: every
// object of a batch job and every byte. The byte test alone would misread
// a batch of zero-size objects as finished before it ran.
func (j *Job) workDone() bool {
	return j.objDoneCount == len(j.Spec.Objects) && float64(j.Spec.Bytes)-j.moved < 1
}

// Moved returns bytes delivered so far across all attempts.
func (j *Job) Moved() float64 { return j.moved }

// Stats returns the job's recovery counters across all attempts:
// in-protocol recoveries and retransmissions, rail failovers and
// failbacks, and hedged windows — repairs RFTP made itself, without the
// scheduler requeueing.
func (j *Job) Stats() rftp.Stats {
	st := j.folded
	if j.rt != nil {
		st.Add(j.rt.Stats)
	}
	return st
}

// GraySuspects returns how many gray suspect verdicts the job's rail
// managers issued across all attempts.
func (j *Job) GraySuspects() int {
	n := j.suspects
	if j.rt != nil {
		if m := j.rt.Rails(); m != nil {
			n += m.SuspectEntries
		}
	}
	return n
}

// Wait returns the admission wait (zero until first start).
func (j *Job) Wait() sim.Duration {
	if j.FirstStart == 0 {
		return 0
	}
	return sim.Duration(j.FirstStart - j.Submitted)
}

// handle abstracts a running rftp or gridftp transfer.
type handle interface {
	Transferred() float64
	Stop()
}

// Tenant is a registered tenant with a fair-share weight.
type Tenant struct {
	Name   string
	Weight float64
}

// Config tunes the scheduler.
type Config struct {
	// MaxConcurrent caps simultaneously running jobs.
	MaxConcurrent int
	// StreamBudget is the total RFTP stream count divided among running
	// RFTP jobs; 0 selects 2 streams per front-end link.
	StreamBudget int
	// RFTP is the base RFTP shape (Streams is overridden per job by the
	// fair-share arbiter).
	RFTP rftp.Config
	// RFTPParams calibrates RFTP costs (StartOffset is managed per job).
	// When the system runs with core.Options.Recovery, each attempt fills
	// in the recovery ladder through core.Options.ApplyRFTP.
	RFTPParams rftp.Params
	// GridFTP is the shape for GridFTP jobs (streams are not arbitrated:
	// the baseline tool has no re-division knob).
	GridFTP gridftp.Config
	// CheckEvery is the progress watchdog period.
	CheckEvery sim.Duration
	// StallAfter is the no-progress span that declares a job stalled.
	StallAfter sim.Duration
	// MinStallGrace floors every attempt's stall budget. StallAfter was
	// tuned for multi-second transfers; when an experiment shrinks it to
	// chase sub-millisecond object jobs, the watchdog must still grant at
	// least the session setup time (handshake RTTs) before declaring a
	// stall, or tiny jobs are requeued while legitimately handshaking.
	// Zero selects an automatic floor: twice the handshake span on the
	// slowest front link plus one CheckEvery.
	MinStallGrace sim.Duration
}

// DefaultConfig returns a tuned scheduler for the Figure 5 LAN system.
func DefaultConfig() Config {
	return Config{
		MaxConcurrent: 4,
		StreamBudget:  6,
		RFTP:          rftp.DefaultConfig(),
		RFTPParams:    rftp.DefaultParams(),
		GridFTP:       gridftp.DefaultConfig(),
		CheckEvery:    250 * sim.Millisecond,
		StallAfter:    sim.Second,
	}
}

// The retry ladder: the backoff between attempts is
// retryBase × 2^(retries−1), capped at retryMax, and a job is Lost once
// maxAttempts attempts have stalled.
const (
	retryBase   sim.Duration = 500 * sim.Millisecond
	retryMax    sim.Duration = 8 * sim.Second
	maxAttempts              = 12
)

// Validate reports config errors.
func (c Config) Validate() error {
	switch {
	case c.MaxConcurrent <= 0:
		return fmt.Errorf("xfersched: MaxConcurrent must be positive")
	case c.CheckEvery <= 0:
		return fmt.Errorf("xfersched: CheckEvery must be positive")
	case c.StallAfter < c.CheckEvery:
		return fmt.Errorf("xfersched: StallAfter must be ≥ CheckEvery")
	case c.MinStallGrace < 0:
		return fmt.Errorf("xfersched: MinStallGrace must not be negative")
	}
	return nil
}

// Scheduler multiplexes jobs over one core.System.
type Scheduler struct {
	Sys *core.System
	Cfg Config

	eng      *sim.Engine
	tenants  []*Tenant
	byTenant map[string]*Tenant

	queue   []*Job // always sorted by jobBefore (maintained on insert)
	running []*Job
	jobs    []*Job // every submitted job, submission order
	byID    map[string]*Job

	// aggregateBW is the front-end payload capacity admitted jobs reserve
	// against; perJobBW is one job's nominal slice of it, also the ideal
	// rate the slowdown metric divides by.
	aggregateBW, perJobBW float64
	reserved              float64
	pendingSubmits        int
	watchdog              *sim.Ticker
	minGrace              sim.Duration // resolved MinStallGrace floor

	// WaitHist collects admission waits (seconds) for quantile reporting.
	WaitHist *metrics.Histogram
	// MaxQueueLen tracks the deepest backlog seen.
	MaxQueueLen int
}

// New builds a scheduler over sys. A zero StreamBudget takes its default
// from the system's front-end link count.
func New(sys *core.System, cfg Config) (*Scheduler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.StreamBudget <= 0 {
		cfg.StreamBudget = 2 * len(sys.TB.FrontLinks)
	}
	aggregate := sys.FrontCapacity()
	s := &Scheduler{
		Sys: sys, Cfg: cfg,
		aggregateBW: aggregate,
		perJobBW:    aggregate / float64(cfg.MaxConcurrent),
		eng:         sys.Engine(),
		byTenant:    make(map[string]*Tenant),
		byID:        make(map[string]*Job),
		WaitHist:    metrics.NewHistogram(1e-3),
	}
	s.minGrace = cfg.MinStallGrace
	if s.minGrace <= 0 {
		var rtt sim.Duration
		for _, l := range sys.TB.FrontLinks {
			if l.Cfg.RTT > rtt {
				rtt = l.Cfg.RTT
			}
		}
		hs := sim.Duration(cfg.RFTPParams.HandshakeRTTs) * rtt
		s.minGrace = 2*hs + cfg.CheckEvery
	}
	s.watchdog = s.eng.NewTicker(cfg.CheckEvery, s.check)
	return s, nil
}

// SetTenant registers (or reweights) a tenant.
func (s *Scheduler) SetTenant(name string, weight float64) {
	if weight <= 0 {
		panic("xfersched: tenant weight must be positive")
	}
	if t, ok := s.byTenant[name]; ok {
		t.Weight = weight
		return
	}
	t := &Tenant{Name: name, Weight: weight}
	s.byTenant[name] = t
	s.tenants = append(s.tenants, t)
}

// tenant resolves (auto-registering at weight 1) a job's tenant.
func (s *Scheduler) tenant(name string) *Tenant {
	if t, ok := s.byTenant[name]; ok {
		return t
	}
	s.SetTenant(name, 1)
	return s.byTenant[name]
}

// Submit enqueues a job at the current virtual time and runs an admission
// pass. It returns the live job handle.
func (s *Scheduler) Submit(spec JobSpec) (*Job, error) {
	if spec.ID == "" {
		return nil, fmt.Errorf("xfersched: job needs an ID")
	}
	if len(spec.Objects) > 0 {
		if spec.Protocol != ProtoRFTP {
			return nil, fmt.Errorf("xfersched: batch job %s must use RFTP", spec.ID)
		}
		total := int64(0)
		for _, o := range spec.Objects {
			if o.Size < 0 {
				return nil, fmt.Errorf("xfersched: job %s object %q has negative size", spec.ID, o.Key)
			}
			total += o.Size
		}
		spec.Bytes = total
		if spec.Files == 0 {
			spec.Files = len(spec.Objects)
		}
	}
	if spec.Bytes < 0 {
		return nil, fmt.Errorf("xfersched: job %s needs non-negative Bytes", spec.ID)
	}
	if _, dup := s.byID[spec.ID]; dup {
		return nil, fmt.Errorf("xfersched: duplicate job ID %q", spec.ID)
	}
	s.tenant(spec.Tenant)
	j := &Job{Spec: spec, State: StateQueued, Submitted: s.eng.Now()}
	s.jobs = append(s.jobs, j)
	s.byID[spec.ID] = j
	s.insertQueued(j)
	s.schedule(s.eng.Now())
	return j, nil
}

// SubmitAt schedules a future submission (for replaying job traces).
func (s *Scheduler) SubmitAt(at sim.Time, spec JobSpec) {
	s.pendingSubmits++
	s.eng.At(at, func() {
		s.pendingSubmits--
		if _, err := s.Submit(spec); err != nil {
			panic(err)
		}
	})
}

// ApplyFaults schedules a fault-injection plan (flaps, degradation, error
// bursts — see internal/faults) against the scheduler's engine. With
// recovery enabled (core.Options.Recovery) the transfers
// absorb the faults in-protocol; without it, the watchdog requeues the
// jobs the plan knocks over.
func (s *Scheduler) ApplyFaults(p *faults.Plan) { p.Apply(s.eng) }

// Jobs returns every submitted job in submission order.
func (s *Scheduler) Jobs() []*Job { return s.jobs }

// Running returns the number of in-flight jobs.
func (s *Scheduler) Running() int { return len(s.running) }

// AllDone reports whether every submitted (and trace-scheduled) job has
// reached a terminal state.
func (s *Scheduler) AllDone() bool {
	if s.pendingSubmits > 0 {
		return false
	}
	for _, j := range s.jobs {
		if j.State != StateDone && j.State != StateLost {
			return false
		}
	}
	return true
}

// RunToCompletion advances virtual time until every job terminates or the
// limit elapses, and reports whether all jobs terminated. The watchdog
// ticker keeps the event queue alive, so callers use this (or RunFor)
// rather than Engine.Run.
func (s *Scheduler) RunToCompletion(limit sim.Duration) bool {
	deadline := s.eng.Now() + sim.Time(limit)
	for !s.AllDone() && s.eng.Now() < deadline {
		step := sim.Time(sim.Second)
		if rem := deadline - s.eng.Now(); rem < step {
			step = rem
		}
		s.eng.RunUntil(s.eng.Now() + step)
	}
	return s.AllDone()
}

// Close stops the watchdog and any pending backoff timers so the engine's
// event queue can drain.
func (s *Scheduler) Close() {
	s.watchdog.Stop()
	for _, j := range s.jobs {
		if j.backoff != nil {
			j.backoff.Stop()
		}
	}
}

// deadlineKey orders the queue by absolute deadline (none = Forever).
func deadlineKey(j *Job) sim.Time {
	if j.Spec.Deadline <= 0 {
		return sim.Forever
	}
	return j.Submitted + sim.Time(j.Spec.Deadline)
}

// jobBefore is the admission order: priority desc, earliest deadline,
// FIFO, then ID — a strict total order (IDs are unique), for determinism.
func jobBefore(a, b *Job) bool {
	if a.Spec.Priority != b.Spec.Priority {
		return a.Spec.Priority > b.Spec.Priority
	}
	if da, db := deadlineKey(a), deadlineKey(b); da != db {
		return da < db
	}
	if a.Submitted != b.Submitted {
		return a.Submitted < b.Submitted
	}
	return a.Spec.ID < b.Spec.ID
}

// insertQueued places j at its ordered position in the admission queue
// (binary search + shift). Every ordering key is immutable once submitted,
// so the queue stays sorted and admission pops the head without a per-pass
// full sort — the former sort-per-pass was quadratic against the
// 10k-tiny-object backlogs the objstore gateway produces. The resulting
// pop order is identical to the old stable sort's: jobBefore is a strict
// total order.
func (s *Scheduler) insertQueued(j *Job) {
	i := sort.Search(len(s.queue), func(k int) bool { return jobBefore(j, s.queue[k]) })
	s.queue = append(s.queue, nil)
	copy(s.queue[i+1:], s.queue[i:])
	s.queue[i] = j
	if len(s.queue) > s.MaxQueueLen {
		s.MaxQueueLen = len(s.queue)
	}
}

// schedule runs one admission pass and then re-arbitrates stream shares.
// It is called after every state change.
func (s *Scheduler) schedule(now sim.Time) {
	for len(s.queue) > 0 {
		if len(s.running) >= s.Cfg.MaxConcurrent {
			break
		}
		if s.reserved+s.perJobBW > s.aggregateBW*(1+1e-9) {
			break
		}
		j := s.queue[0]
		if j.src == nil {
			// A zero-byte job still owns a directory entry on each SAN;
			// fsim rejects empty files, so the stub is one byte.
			fileBytes := j.Spec.Bytes
			if fileBytes < 1 {
				fileBytes = 1
			}
			src, dst, err := s.Sys.CreateJobFiles(j.Spec.Dir, j.Spec.ID, fileBytes)
			if err != nil {
				// SAN capacity exhausted: hold the whole queue until a
				// running job frees its files.
				break
			}
			j.src, j.dst = src, dst
		}
		s.queue = s.queue[1:]
		j.State = StateRunning
		j.reserved = s.perJobBW
		s.reserved += j.reserved
		s.running = append(s.running, j)
		if j.FirstStart == 0 {
			j.FirstStart = now
			s.WaitHist.Observe(float64(now - j.Submitted))
		}
		s.eng.Tracef("xfersched", "admit %s (tenant=%s, %d queued)",
			j.Spec.ID, j.Spec.Tenant, len(s.queue))
	}
	s.arbitrate(now)
}

// arbitrate divides the RFTP stream budget among running RFTP jobs by
// tenant weight (each tenant's weight split across its active jobs) and
// starts or checkpoint-restarts transfers whose allocation changed.
// GridFTP jobs run at their configured stream count.
func (s *Scheduler) arbitrate(now sim.Time) {
	var rftpJobs []*Job
	perTenant := make(map[string]int)
	for _, j := range s.running {
		if j.Spec.Protocol == ProtoRFTP && !j.isBatch() {
			rftpJobs = append(rftpJobs, j)
			perTenant[j.Spec.Tenant]++
		}
	}
	alloc := s.divideStreams(rftpJobs, perTenant)
	for i, j := range rftpJobs {
		switch {
		case j.handle == nil:
			s.startAttempt(j, alloc[i], now)
		case j.streams != alloc[i]:
			s.restart(j, alloc[i], now)
		}
	}
	// Snapshot: startAttempt can mutate s.running when a job's remaining
	// bytes round to zero and it finishes immediately. Batch jobs run like
	// GridFTP jobs at a fixed stream count: rebalancing a window mid-flight
	// would discard partial-object progress for no fair-share gain.
	for _, j := range append([]*Job(nil), s.running...) {
		if j.handle != nil || j.State != StateRunning {
			continue
		}
		switch {
		case j.isBatch():
			s.startAttempt(j, s.Cfg.RFTP.Streams, now)
		case j.Spec.Protocol == ProtoGridFTP:
			s.startAttempt(j, s.Cfg.GridFTP.Streams, now)
		}
	}
}

// divideStreams computes the weighted fair-share stream allocation: floor
// of the exact share (min 1 each), leftovers by largest remainder.
func (s *Scheduler) divideStreams(jobs []*Job, perTenant map[string]int) []int {
	n := len(jobs)
	if n == 0 {
		return nil
	}
	budget := s.Cfg.StreamBudget
	if budget < n {
		budget = n
	}
	weights := make([]float64, n)
	total := 0.0
	for i, j := range jobs {
		weights[i] = s.tenant(j.Spec.Tenant).Weight / float64(perTenant[j.Spec.Tenant])
		total += weights[i]
	}
	alloc := make([]int, n)
	rem := make([]float64, n)
	used := 0
	for i := range jobs {
		exact := float64(budget) * weights[i] / total
		alloc[i] = int(exact)
		if alloc[i] < 1 {
			alloc[i] = 1
		}
		rem[i] = exact - float64(alloc[i])
		used += alloc[i]
	}
	for used < budget {
		best := 0
		for i := 1; i < n; i++ {
			if rem[i] > rem[best]+1e-12 {
				best = i
			}
		}
		alloc[best]++
		rem[best] -= 1
		used++
	}
	return alloc
}

// startAttempt launches a transfer for the job's remaining bytes with the
// given stream count.
func (s *Scheduler) startAttempt(j *Job, streams int, now sim.Time) {
	if j.workDone() {
		s.finish(j, now)
		return
	}
	remaining := float64(j.Spec.Bytes) - j.moved
	j.streams = streams
	j.attempt++
	attempt := j.attempt
	j.lastProgress = 0
	j.lastProgressAt = now
	onDone := func(t sim.Time) {
		// Guard against a superseded attempt's close exchange landing
		// after a checkpoint-restart.
		if j.attempt != attempt || j.State != StateRunning {
			return
		}
		s.complete(j, t)
	}
	var (
		h   handle
		err error
	)
	j.stallBudget = s.Cfg.StallAfter
	if j.stallBudget < s.minGrace {
		j.stallBudget = s.minGrace
	}
	switch j.Spec.Protocol {
	case ProtoRFTP:
		cfg := s.Cfg.RFTP
		cfg.Streams = streams
		p := s.Sys.Opt.ApplyRFTP(s.Cfg.RFTPParams)
		var rt *rftp.Transfer
		if j.isBatch() {
			objs, onObject := j.pendingObjects(attempt)
			rt, err = s.Sys.StartRFTPBatchOn(j.Spec.Dir, cfg, p, j.src, j.dst, objs, onObject, onDone)
		} else {
			p.StartOffset = int64(j.moved)
			rt, err = s.Sys.StartRFTPOn(j.Spec.Dir, cfg, p, j.src, j.dst, float64(j.Spec.Bytes), onDone)
		}
		if err == nil {
			// In-protocol recovery is the first line of defense: give the
			// transfer its whole retry budget before the watchdog may call
			// the job stalled, and take exhaustion reports directly instead
			// of waiting the budget out.
			j.stallBudget += p.RecoveryBudget()
			rt.OnFailure = func(t sim.Time) {
				if j.attempt != attempt || j.State != StateRunning {
					return
				}
				s.eng.Tracef("xfersched", "recovery exhausted on %s, requeueing", j.Spec.ID)
				s.stall(j, t)
				s.schedule(t)
			}
			j.rt = rt
			h = rt
		}
	case ProtoGridFTP:
		h, err = s.Sys.StartGridFTPOn(j.Spec.Dir, s.Cfg.GridFTP, j.src, j.dst, remaining, onDone)
	default:
		err = fmt.Errorf("xfersched: unknown protocol %d", j.Spec.Protocol)
	}
	if err != nil {
		panic(fmt.Sprintf("xfersched: start %s: %v", j.Spec.ID, err))
	}
	j.handle = h
	s.eng.Tracef("xfersched", "start %s attempt=%d streams=%d remaining=%g",
		j.Spec.ID, attempt, streams, remaining)
}

// pendingObjects lists a batch job's undelivered objects for one attempt,
// with the callback that folds the attempt's deliveries into the job's
// ledger: delivered objects are never re-sent, a stalled attempt's
// in-flight partials are.
func (j *Job) pendingObjects(attempt int) ([]rftp.ObjectSpec, func(i int, now sim.Time)) {
	if j.objDone == nil {
		j.objDone = make([]bool, len(j.Spec.Objects))
	}
	var (
		objs []rftp.ObjectSpec
		idx  []int
	)
	for g, o := range j.Spec.Objects {
		if !j.objDone[g] {
			objs = append(objs, o)
			idx = append(idx, g)
		}
	}
	return objs, func(i int, now sim.Time) {
		if j.attempt != attempt {
			return
		}
		g := idx[i]
		if j.objDone[g] {
			return
		}
		j.objDone[g] = true
		j.objDoneCount++
		j.moved += float64(j.Spec.Objects[g].Size)
		if j.Spec.OnObject != nil {
			j.Spec.OnObject(g, now)
		}
	}
}

// restart checkpoints a running transfer and relaunches it with a new
// stream allocation (a rebalance, not a retry).
func (s *Scheduler) restart(j *Job, streams int, now sim.Time) {
	j.moved += j.handle.Transferred()
	j.handle.Stop()
	j.handle = nil
	j.foldAttempt()
	s.eng.Tracef("xfersched", "rebalance %s to %d streams (moved=%g)",
		j.Spec.ID, streams, j.moved)
	s.startAttempt(j, streams, now)
}

// check is the watchdog tick: fold progress, declare stalls.
func (s *Scheduler) check(now sim.Time) {
	stalled := false
	snapshot := append([]*Job(nil), s.running...)
	for _, j := range snapshot {
		if j.State != StateRunning || j.handle == nil {
			continue
		}
		// Delivered objects are progress even when they carry no bytes
		// (zero-length objects): weight each delivery past the one-byte
		// noise threshold below, or a window of empty objects would wedge
		// the watchdog.
		cur := j.handle.Transferred() + 2*float64(j.objDoneCount)
		if cur > j.lastProgress+1 {
			j.lastProgress = cur
			j.lastProgressAt = now
			continue
		}
		budget := s.Cfg.StallAfter
		if j.stallBudget > budget {
			budget = j.stallBudget
		}
		// A transfer mid-recovery earns extra grace scaled to what it is
		// actually doing: a stream migration legitimately pays rail
		// probing and a fresh handshake that a same-rail retransmission
		// never does. Requeueing mid-failover would double the damage —
		// the whole attempt's unacked window is thrown away to redo work
		// the protocol was seconds from finishing.
		if j.rt != nil {
			budget += j.rt.RecoveryGrace()
		}
		if sim.Duration(now-j.lastProgressAt) >= budget {
			s.stall(j, now)
			stalled = true
		}
	}
	if stalled {
		s.schedule(now)
	}
}

// stall handles a no-progress job: fold its partial bytes, release its
// admission slot, and either finish it (all bytes actually arrived — only
// the close exchange was lost), requeue it with exponential backoff, or
// give up.
func (s *Scheduler) stall(j *Job, now sim.Time) {
	if !j.isBatch() {
		// Batch jobs track moved through their per-object ledger; a
		// stalled window's partial object bytes are discarded (delivery
		// is all-or-nothing per object), so there is nothing to fold.
		j.moved += j.handle.Transferred()
	}
	j.handle.Stop()
	j.handle = nil
	j.foldAttempt()
	j.Retries++
	s.release(j)
	s.removeRunning(j)
	if j.workDone() {
		s.finish(j, now)
		return
	}
	if j.Retries >= maxAttempts {
		j.State = StateLost
		j.Finished = now
		s.Sys.RemoveJobFiles(j.Spec.Dir, j.Spec.ID)
		j.src, j.dst = nil, nil
		s.eng.Tracef("xfersched", "lost %s after %d attempts", j.Spec.ID, j.Retries)
		return
	}
	j.State = StateBackoff
	delay := retryBase
	for i := 1; i < j.Retries && delay < retryMax; i++ {
		delay *= 2
	}
	if delay > retryMax {
		delay = retryMax
	}
	s.eng.Tracef("xfersched", "stall %s retry=%d backoff=%gs moved=%g",
		j.Spec.ID, j.Retries, float64(delay), j.moved)
	if j.backoff == nil {
		j.backoff = s.eng.NewTimer(delay, func(t sim.Time) { s.requeue(j, t) })
	} else {
		j.backoff.Reset(delay)
	}
}

// requeue returns a backed-off job to the admission queue.
func (s *Scheduler) requeue(j *Job, now sim.Time) {
	j.State = StateQueued
	s.insertQueued(j)
	s.schedule(now)
}

// complete finishes a successfully delivered job and reschedules.
func (s *Scheduler) complete(j *Job, now sim.Time) {
	j.moved = float64(j.Spec.Bytes)
	j.handle = nil
	j.foldAttempt()
	s.release(j)
	s.removeRunning(j)
	s.finish(j, now)
	s.schedule(now)
}

// finish moves a job to StateDone and frees its SAN files.
func (s *Scheduler) finish(j *Job, now sim.Time) {
	j.State = StateDone
	j.Finished = now
	j.moved = float64(j.Spec.Bytes)
	if j.reserved > 0 {
		s.release(j)
		s.removeRunning(j)
	}
	if j.Spec.Deadline > 0 && sim.Duration(now-j.Submitted) > j.Spec.Deadline {
		j.DeadlineMissed = true
	}
	if j.src != nil {
		s.Sys.RemoveJobFiles(j.Spec.Dir, j.Spec.ID)
		j.src, j.dst = nil, nil
	}
	s.eng.Tracef("xfersched", "done %s wait=%gs elapsed=%gs retries=%d",
		j.Spec.ID, float64(j.Wait()), float64(now-j.Submitted), j.Retries)
}

// foldAttempt folds a finished attempt's recovery stats into the job and
// drops the concrete transfer handle.
func (j *Job) foldAttempt() {
	if j.rt == nil {
		return
	}
	j.folded.Add(j.rt.Stats)
	if m := j.rt.Rails(); m != nil {
		j.suspects += m.SuspectEntries
	}
	j.rt = nil
}

// release returns a job's admission reservation.
func (s *Scheduler) release(j *Job) {
	s.reserved -= j.reserved
	if s.reserved < 0 {
		s.reserved = 0
	}
	j.reserved = 0
}

// removeRunning drops j from the running list, preserving order.
func (s *Scheduler) removeRunning(j *Job) {
	for i, r := range s.running {
		if r == j {
			s.running = append(s.running[:i], s.running[i+1:]...)
			return
		}
	}
}

// slowdown returns elapsed/ideal for a finished job.
func (s *Scheduler) slowdown(j *Job) float64 {
	if j.Finished == 0 {
		return math.NaN()
	}
	ideal := float64(j.Spec.Bytes) / s.perJobBW
	if ideal <= 0 {
		return math.NaN()
	}
	return float64(j.Finished-j.Submitted) / ideal
}
