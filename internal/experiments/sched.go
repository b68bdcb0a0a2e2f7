package experiments

import (
	"fmt"

	"e2edt/internal/chart"
	"e2edt/internal/core"
	"e2edt/internal/faults"
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

// lanScheduler builds the Figure 5 LAN system over a 2 GB dataset and a
// default transfer scheduler on it, tracing into tracer when non-nil.
func lanScheduler(tracer sim.Tracer) (*core.System, *xfersched.Scheduler) {
	opt := core.DefaultOptions()
	opt.DatasetSize = 2 * units.GB
	sys, err := core.NewSystem(opt)
	if err != nil {
		panic(err)
	}
	if tracer != nil {
		sys.Engine().SetTracer(tracer)
	}
	s, err := xfersched.New(sys, xfersched.DefaultConfig())
	if err != nil {
		panic(err)
	}
	return sys, s
}

// schedRun replays one generated trace through a fresh scheduler and
// returns its report and whether it drained within two virtual hours.
// failAt > 0 injects a front-link outage window.
func schedRun(jobsPerMin float64, jobs int, failAt sim.Time, failFor sim.Duration) (xfersched.Report, bool) {
	sys, s := lanScheduler(nil)
	defer s.Close()
	tc := xfersched.DefaultTraceConfig()
	tc.Jobs = jobs
	tc.JobsPerMinute = jobsPerMin
	tc.MinBytes = 2 * units.GB
	tc.MaxBytes = 6 * units.GB
	tc.GridFTPFraction = 0.2
	s.WithTenantWeights(tc.Tenants)
	s.SubmitTrace(xfersched.GenerateTrace(tc))
	if failAt > 0 {
		outage := &faults.Plan{}
		outage.FailWindow(sys.TB.FrontLinks[0], failAt, failFor)
		s.ApplyFaults(outage)
	}
	drained := s.RunToCompletion(2 * 3600 * sim.Second)
	return s.Report(), drained
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
