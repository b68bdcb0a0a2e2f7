package main

import (
	"fmt"
	"math/rand"
	"time"

	"e2edt/internal/cluster"
	"e2edt/internal/core"
	"e2edt/internal/fio"
	"e2edt/internal/fluid"
	"e2edt/internal/iscsi"
	"e2edt/internal/numa"
	"e2edt/internal/objstore"
	"e2edt/internal/sim"
	"e2edt/internal/units"
	"e2edt/internal/xfersched"
)

// A workload builds a fresh system from inputs generated from the seed,
// runs it to completion through the system's public calls, and checks the
// outcome of every unit. One call of run is one repetition.
type workload interface {
	// unit names one unit of work, the denominator of every per-unit metric.
	unit() string
	run(seed int64, p *probe) (rep, error)
}

// rep is one repetition's outcome, read from public state after the run.
type rep struct {
	// units is the number of units attempted; failed those whose own check
	// failed.
	units, failed int
	// fingerprint is the virtual makespan plus the delivered bytes or
	// command count. Every repetition of one seed must reproduce it.
	fingerprint string
	// counters holds the public layer counters, by per-layer metric name.
	counters map[string]float64
	// keep holds the system, so that the live heap can be measured while it
	// is still reachable.
	keep any
}

// workloads are the benchmark's workloads at their measured sizes.
var workloads = map[string]workload{
	"tiny-flood":   tinyFlood{jobs: 1000},
	"objstore-k64": objstoreBurst{objects: 4096, coalesce: 64},
	"cluster-400":  clusterRun{hosts: 400, shards: 4, tenants: 400, jobs: 1600, dropPct: 2},
	"iser-fio":     iserFio{window: sim.Second},
}

// engineCounters reads the engine's and the fluid solver's public counters.
// The *_left counts are read after teardown: anything still registered or
// queued there was leaked by the run.
func engineCounters(c map[string]float64, eng *sim.Engine, fs *fluid.Sim) {
	st := fs.Network.Stats()
	c["sim.events"] = float64(eng.Processed)
	c["sim.pending_left"] = float64(eng.Pending())
	c["fluid.full_solves"] = float64(st.FullSolves)
	c["fluid.partial_solves"] = float64(st.PartialSolves)
	c["fluid.component_solves"] = float64(st.ComponentSolves)
	c["fluid.fast_resolves"] = float64(st.FastResolves)
	c["fluid.skips"] = float64(st.Skips)
	c["fluid.flows_left"] = float64(len(fs.Network.Flows()))
	c["fluid.resources_left"] = float64(len(fs.Network.Resources()))
	c["fluid.active_left"] = float64(fs.ActiveTransfers())
}

// schedCounters reads the transfer scheduler's public counters.
func schedCounters(c map[string]float64, r xfersched.Report) {
	c["xfersched.retries"] = float64(r.TotalRetries)
	c["xfersched.max_queue"] = float64(r.MaxQueueLen)
	c["xfersched.p99_wait_vs"] = r.P99Wait
}

// newSystem builds the single-pair system every non-cluster workload runs
// on, and installs the probe's tracer on its engine.
func newSystem(p *probe) (*core.System, error) {
	opt := core.DefaultOptions()
	opt.DatasetSize = 2 * units.GB
	t := time.Now()
	sys, err := core.NewSystem(opt)
	p.span("core.NewSystem", t)
	if err != nil {
		return nil, err
	}
	p.install(sys.Engine())
	return sys, nil
}

// tinyFlood is an open-loop flood of single-file 24 KiB RFTP jobs, one every
// 500 µs of virtual time, round-robin over four tenants, under a scheduler
// whose watchdog runs every 200 µs. Per-job setup and teardown dominate.
type tinyFlood struct {
	jobs int
	// grace is the scheduler's MinStallGrace; zero keeps its automatic
	// floor, under which no job is retried.
	grace sim.Duration
}

func (tinyFlood) unit() string { return "job" }

func (w tinyFlood) run(seed int64, p *probe) (rep, error) {
	sys, err := newSystem(p)
	if err != nil {
		return rep{}, err
	}
	cfg := xfersched.DefaultConfig()
	cfg.MaxConcurrent = 8
	cfg.CheckEvery = 200 * sim.Microsecond
	cfg.StallAfter = 200 * sim.Microsecond
	cfg.MinStallGrace = w.grace
	t := time.Now()
	s, err := xfersched.New(sys, cfg)
	p.span("xfersched.New", t)
	if err != nil {
		return rep{}, err
	}

	// The seed rotates the tenant order and jitters each arrival within the
	// first fifth of its 500 µs slot, so arrivals stay in order.
	rng := rand.New(rand.NewSource(seed))
	first := rng.Intn(4)
	for i := 0; i < w.jobs; i++ {
		at := sim.Time(sim.Duration(i)*500*sim.Microsecond +
			sim.Duration(rng.Intn(100))*sim.Microsecond)
		spec := xfersched.JobSpec{
			ID:       fmt.Sprintf("tiny-%05d", i),
			Tenant:   fmt.Sprintf("t%d", (first+i)%4),
			Protocol: xfersched.ProtoRFTP,
			Bytes:    24 << 10,
			Files:    1,
		}
		t = time.Now()
		s.SubmitAt(at, spec)
		p.span("xfersched.SubmitAt", t)
	}

	p.startRun()
	t = time.Now()
	s.RunToCompletion(sim.Duration(w.jobs)*500*sim.Microsecond + 60*sim.Second)
	p.span("xfersched.RunToCompletion", t)
	s.Close()

	// A job passes when it is done with zero retries; a job never submitted
	// fails too.
	r := rep{units: w.jobs, failed: w.jobs - len(s.Jobs()), counters: map[string]float64{}, keep: s}
	delivered := 0.0
	for _, j := range s.Jobs() {
		if j.State != xfersched.StateDone || j.Retries != 0 {
			r.failed++
		}
		delivered += j.Moved()
	}
	report := s.Report()
	r.fingerprint = fmt.Sprintf("makespan=%.17g bytes=%.17g", report.Makespan, delivered)
	schedCounters(r.counters, report)
	engineCounters(r.counters, sys.Engine(), sys.TB.Sim)
	return r, nil
}

// objstoreBurst is one tenant's burst of ~24 KiB PUTs through the
// single-pair object gateway, coalesced into rftp windows of up to coalesce
// objects: the tinyFlood stack with setup amortised over each window.
type objstoreBurst struct {
	objects, coalesce int
}

func (objstoreBurst) unit() string { return "object" }

func (w objstoreBurst) run(seed int64, p *probe) (rep, error) {
	sys, err := newSystem(p)
	if err != nil {
		return rep{}, err
	}
	t := time.Now()
	s, err := xfersched.New(sys, xfersched.DefaultConfig())
	p.span("xfersched.New", t)
	if err != nil {
		return rep{}, err
	}
	params := objstore.DefaultParams()
	params.Coalesce = w.coalesce
	t = time.Now()
	g := objstore.NewGateway(s, params, core.Forward)
	p.span("objstore.NewGateway", t)

	objs := objstore.Workload{
		Objects: w.objects, Tenants: 1,
		MinBytes: 20 << 10, MaxBytes: 28 << 10, ZeroEvery: 100,
		Seed: seed,
	}.Generate()
	const start = sim.Time(sim.Millisecond)
	t = time.Now()
	idx, err := g.Put(start, objs)
	p.span("objstore.Put", t)
	if err != nil {
		return rep{}, err
	}

	p.startRun()
	t = time.Now()
	g.RunToCompletion(3600 * sim.Second)
	p.span("objstore.RunToCompletion", t)
	s.Close()

	// An object passes when it was delivered and the gateway's exactly-once
	// audit holds. The audit names only its first offender, so a failed
	// audit fails every object.
	r := rep{units: len(objs), counters: map[string]float64{}, keep: g}
	t = time.Now()
	audit := g.AuditExactlyOnce()
	p.span("objstore.AuditExactlyOnce", t)
	var last sim.Time
	for _, i := range idx {
		at := g.DoneAt(i)
		if at == 0 || audit != nil {
			r.failed++
		}
		if at > last {
			last = at
		}
	}
	_, bytes := g.ObjectsDone()
	r.fingerprint = fmt.Sprintf("makespan=%.17g bytes=%.17g", float64(last-start), bytes)
	r.counters["objstore.windows"] = float64(g.Windows)
	r.counters["objstore.lookups"] = float64(g.Lookups)
	r.counters["objstore.scans"] = float64(g.Scans)
	schedCounters(r.counters, s.Report())
	engineCounters(r.counters, sys.Engine(), sys.TB.Sim)
	return r, nil
}

// clusterRun is the sharded cluster under lossy control RPCs, fed seeded
// Poisson arrivals of 64–512 MB jobs. The fluid solver dominates.
type clusterRun struct {
	hosts, shards, tenants, jobs int
	dropPct                      float64
}

func (clusterRun) unit() string { return "job" }

func (w clusterRun) run(seed int64, p *probe) (rep, error) {
	eng := sim.NewEngine()
	p.install(eng)
	t := time.Now()
	c, err := cluster.New(eng, cluster.Config{
		Hosts: w.hosts, Shards: w.shards, DropPct: w.dropPct, Seed: seed,
	})
	p.span("cluster.New", t)
	if err != nil {
		return rep{}, err
	}
	t = time.Now()
	err = cluster.Generate(c, cluster.WorkloadConfig{
		Tenants: w.tenants, Jobs: w.jobs,
		MinBytes: float64(64 * units.MB), MaxBytes: float64(512 * units.MB),
		Seed: seed,
	})
	p.span("cluster.Generate", t)
	if err != nil {
		return rep{}, err
	}
	done := make([]int, c.Jobs())
	c.OnJobDone = func(id int, _ sim.Time) { done[id]++ }

	p.startRun()
	t = time.Now()
	c.Run()
	p.span("cluster.Run", t)

	// A job passes when it completed exactly once; a failed audit fails
	// every job.
	r := rep{units: c.Jobs(), counters: map[string]float64{}, keep: c}
	t = time.Now()
	audit := c.VerifyExactlyOnce()
	p.span("cluster.VerifyExactlyOnce", t)
	for id := 0; id < c.Jobs(); id++ {
		if audit != nil || done[id] != 1 {
			r.failed++
		}
	}
	report := c.Report()
	r.fingerprint = fmt.Sprintf("makespan=%.17g bytes=%.17g", report.VirtualSeconds, report.DeliveredBytes)
	r.counters["cluster.decisions"] = float64(report.Decisions)
	r.counters["cluster.decision_p99_us"] = report.DecisionP99us
	r.counters["cluster.ctrl_drops"] = float64(report.CtrlDrops)
	r.counters["cluster.ctrl_resends"] = float64(report.CtrlResends)
	r.counters["cluster.digests"] = float64(report.Digests)
	r.counters["cluster.adjusts"] = float64(report.Adjusts)
	engineCounters(r.counters, eng, c.FSim)
	return r, nil
}

// iserFio is a closed-loop fio write, 256 KiB blocks at iodepth 4, over the
// six LUNs of the receive side's iSER SAN for window of virtual time: the
// per-command path iscsi → iser → fabric → short-lived fluid transfers.
type iserFio struct {
	window sim.Duration
}

func (iserFio) unit() string { return "command" }

func (w iserFio) run(seed int64, p *probe) (rep, error) {
	sys, err := newSystem(p)
	if err != nil {
		return rep{}, err
	}
	side := sys.B
	const depth = 4

	// The seed permutes the order in which the LUNs' queues are filled.
	// Each queue slot's buffer sits on its LUN's NUMA node, as the paper
	// binds its fio threads.
	var luns []int
	for _, l := range side.Target.LUNs() {
		luns = append(luns, l.ID)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(luns), func(i, j int) { luns[i], luns[j] = luns[j], luns[i] })
	t := time.Now()
	bufs := make(map[int][]*numa.Buffer, len(luns))
	m := side.Front.M
	for _, lun := range luns {
		for slot := 0; slot < depth; slot++ {
			bufs[lun] = append(bufs[lun], m.NewBuffer("fio", m.Node(lun%len(m.Nodes))))
		}
	}
	p.span("fio.buffers", t)

	p.startRun()
	t = time.Now()
	res, err := fio.Run(sys.Engine(), side.Session,
		func(lun, slot int) *numa.Buffer { return bufs[lun][slot] },
		fio.JobSpec{
			Name: "fio", Op: iscsi.OpWrite, BlockSize: 256 << 10,
			IODepth: depth, LUNs: luns, Duration: w.window,
		})
	p.span("fio.Run", t)
	if err != nil {
		return rep{}, err
	}

	// A command passes when it completed without error.
	f := res[0]
	r := rep{
		units: int(f.Completed + f.Errors), failed: int(f.Errors),
		counters: map[string]float64{}, keep: sys,
	}
	r.fingerprint = fmt.Sprintf("makespan=%.17g commands=%d", float64(sys.Engine().Now()), f.Completed)
	r.counters["fio.commands"] = float64(f.Completed)
	r.counters["fio.lat_p99_vs"] = f.Latency.Quantile(0.99)
	engineCounters(r.counters, sys.Engine(), sys.TB.Sim)
	return r, nil
}
