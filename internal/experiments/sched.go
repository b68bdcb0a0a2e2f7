package experiments

import (
	"fmt"

	"e2edt/internal/chart"
	"e2edt/internal/core"
	"e2edt/internal/fabric"
	"e2edt/internal/faults"
	"e2edt/internal/fluid"
	"e2edt/internal/metrics"
	"e2edt/internal/sim"
	"e2edt/internal/units"
	"e2edt/internal/xfersched"
)

func init() {
	register("S1", SchedulerSaturation)
}

// schedLoads is the offered-load sweep in jobs/minute. With a ~4 GB mean
// job the service's front end saturates around 200 jobs/min, so the sweep
// crosses from underload well into overload.
var schedLoads = []float64{30, 60, 120, 240, 480}

// SchedRunSpec is one single-pair scheduler run: the Figure 5 LAN system
// built from Options, a transfer scheduler with Config over it, a job
// trace and a fault schedule over the front links. It is shared by S1
// and cmd/xfersched's single-pair mode, so both measure the same system.
type SchedRunSpec struct {
	Options core.Options
	Config  xfersched.Config
	// Tenants are the scheduler's fair-share weights.
	Tenants []xfersched.TraceTenant
	// Trace is the job submission schedule, generated
	// (xfersched.GenerateTrace) or parsed (xfersched.ParseTrace).
	Trace []xfersched.TimedJob
	// Plan, when set, schedules the run's faults over the front links. Its
	// error, and a plan Validate rejects, abort the run before it starts.
	Plan func(links []*fabric.Link, plan *faults.Plan) error
	// Sample keeps the busiest of the fluid utilisation snapshots taken
	// every 100 ms: at the end of a run every flow has completed and each
	// load reads zero.
	Sample bool
}

// SchedRunResult is one scheduler run's outcome.
type SchedRunResult struct {
	Report xfersched.Report
	Jobs   *metrics.Table // the per-job outcome table
	// Drained reports that every job reached a terminal state within
	// SchedHorizon.
	Drained bool
	// Plan is the fault schedule the run injected.
	Plan *faults.Plan
	// Busiest is the busiest utilisation snapshot (Sample only).
	Busiest []fluid.ResourceUtil
}

// SchedHorizon bounds a scheduler run's virtual time.
const SchedHorizon = 2 * 3600 * sim.Second

// NewSchedRunSpec returns the default scheduler over the LAN system with
// a 2 GB dataset, with no jobs and no faults.
func NewSchedRunSpec() SchedRunSpec {
	opt := core.DefaultOptions()
	opt.DatasetSize = 2 * units.GB
	return SchedRunSpec{Options: opt, Config: xfersched.DefaultConfig()}
}

// build constructs the spec's system and scheduler, tracing into tracer
// when non-nil.
func (spec SchedRunSpec) build(tracer sim.Tracer) (*core.System, *xfersched.Scheduler, error) {
	sys, err := core.NewSystem(spec.Options)
	if err != nil {
		return nil, nil, err
	}
	if tracer != nil {
		sys.Engine().SetTracer(tracer)
	}
	s, err := xfersched.New(sys, spec.Config)
	return sys, s, err
}

// lanScheduler builds the default spec's system and scheduler.
func lanScheduler(tracer sim.Tracer) (*core.System, *xfersched.Scheduler) {
	sys, s, err := NewSchedRunSpec().build(tracer)
	if err != nil {
		panic(err)
	}
	return sys, s
}

// RunSchedPoint replays one trace through a fresh scheduler under the
// spec's faults until every job is terminal or SchedHorizon passes. The
// error reports a system or scheduler the spec's options reject, the Plan
// hook's error, or the plan's Validate error; nothing has run then.
func RunSchedPoint(spec SchedRunSpec) (SchedRunResult, error) {
	var r SchedRunResult
	sys, s, err := spec.build(nil)
	if err != nil {
		return r, err
	}
	defer s.Close()
	s.WithTenantWeights(spec.Tenants)
	s.SubmitTrace(spec.Trace)
	r.Plan = &faults.Plan{}
	if spec.Plan != nil {
		if err := spec.Plan(sys.TB.FrontLinks, r.Plan); err != nil {
			return r, err
		}
		if err := r.Plan.Validate(); err != nil {
			return r, err
		}
		s.ApplyFaults(r.Plan)
	}
	if spec.Sample {
		peak := -1.0
		sampler := sys.Engine().NewTicker(100*sim.Millisecond, func(sim.Time) {
			us := sys.TB.Sim.Network.Utilization()
			total := 0.0
			for _, u := range us {
				total += u.Share
			}
			if total > peak {
				peak, r.Busiest = total, us
			}
		})
		defer sampler.Stop()
	}
	r.Drained = s.RunToCompletion(SchedHorizon)
	r.Report, r.Jobs = s.Report(), s.JobTable()
	return r, nil
}

// schedRun replays one generated trace through the default scheduler and
// returns its report and whether it drained. failAt > 0 injects a
// front-link outage window.
func schedRun(jobsPerMin float64, jobs int, failAt sim.Time, failFor sim.Duration) (xfersched.Report, bool) {
	tc := xfersched.DefaultTraceConfig()
	tc.Jobs = jobs
	tc.JobsPerMinute = jobsPerMin
	tc.MinBytes = 2 * units.GB
	tc.MaxBytes = 6 * units.GB
	tc.GridFTPFraction = 0.2
	spec := NewSchedRunSpec()
	spec.Tenants, spec.Trace = tc.Tenants, xfersched.GenerateTrace(tc)
	if failAt > 0 {
		spec.Plan = func(links []*fabric.Link, plan *faults.Plan) error {
			plan.FailWindow(links[0], failAt, failFor)
			return nil
		}
	}
	r, err := RunSchedPoint(spec)
	if err != nil {
		panic(err)
	}
	return r.Report, r.Drained
}

// SchedulerSaturation sweeps offered load through the multi-tenant
// transfer scheduler: aggregate goodput rises with load until the
// admission cap pins it at the service capacity, while p99 admission wait
// grows without bound past the knee. A second table repeats a mid-load
// point with a front-link outage to show failure-driven retry: every job
// still completes.
func SchedulerSaturation() Result {
	const jobs = 40
	tb := metrics.Table{
		Title: "Scheduler saturation: offered load sweep (40-job traces)",
		Headers: []string{"jobs/min", "goodput", "p99 wait", "mean wait",
			"slowdown", "max queue", "done", "retries"},
	}
	good := metrics.Series{Name: "goodput-Gbps"}
	wait := metrics.Series{Name: "p99-wait-s"}
	peak := 0.0
	allDrained := true
	for _, load := range schedLoads {
		r, drained := schedRun(load, jobs, 0, 0)
		allDrained = allDrained && drained
		g := units.ToGbps(r.AggregateGoodput)
		good.Add(load, g)
		wait.Add(load, r.P99Wait)
		if g > peak {
			peak = g
		}
		tb.AddRow(
			fmt.Sprintf("%.0f", load),
			units.FormatRate(r.AggregateGoodput),
			fmt.Sprintf("%.2fs", r.P99Wait),
			fmt.Sprintf("%.2fs", r.MeanWait),
			fmt.Sprintf("%.2f", r.MeanSlowdown),
			fmt.Sprintf("%d", r.MaxQueueLen),
			fmt.Sprintf("%d/%d", r.Completed, r.Submitted),
			fmt.Sprintf("%d", r.TotalRetries),
		)
	}

	// Failure-injection point: mid-load trace with one front link dark for
	// 10 s. Retries must appear; nothing may be lost.
	fr, drained := schedRun(120, jobs, 5, 10*sim.Second)
	ft := metrics.Table{
		Title:   "Same service, 120 jobs/min, front link down t=5s..15s",
		Headers: []string{"done", "lost", "retries", "goodput", "p99 wait"},
	}
	ft.AddRow(
		fmt.Sprintf("%d/%d", fr.Completed, fr.Submitted),
		fmt.Sprintf("%d", fr.Lost),
		fmt.Sprintf("%d", fr.TotalRetries),
		units.FormatRate(fr.AggregateGoodput),
		fmt.Sprintf("%.2fs", fr.P99Wait),
	)

	g, w := good.Values, wait.Values
	return Result{
		ID:     "S1",
		Title:  "Multi-tenant transfer scheduler under offered load",
		Tables: []metrics.Table{tb, ft},
		Series: []metrics.Series{good, wait},
		Chart:  &chart.Options{XLabel: "jobs/min", YLabel: "Gbps / s", LogX: true},
		Claims: []Claim{
			gate("every trace drains within 2 h virtual", allDrained && drained),
			{"goodput 60 over 30 jobs/min", "", g[1] / g[0], over(1), inf},
			{"goodput at 480 jobs/min over peak", "", g[len(g)-1] / peak, 0.7, inf},
			{"p99 wait growth 30→480 jobs/min (s)", "", w[len(w)-1] - w[0], over(0), inf},
			{"p99 wait at 480 over 120 jobs/min", "", w[len(w)-1] / w[len(w)/2], 2, inf},
			{"outage run jobs done of 40", "", float64(fr.Completed), jobs, jobs},
			{"outage run jobs lost", "", float64(fr.Lost), 0, 0},
			{"outage run retries", "", float64(fr.TotalRetries), 1, inf},
		},
		Notes: []string{
			fmt.Sprintf("goodput plateaus at %.1f Gbps once the admission cap saturates the front end", peak),
			"past the knee, p99 admission wait grows with offered load while goodput stays flat",
		},
	}
}
