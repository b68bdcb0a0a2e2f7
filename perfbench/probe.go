package main

import (
	"time"

	"e2edt/internal/sim"
	"e2edt/internal/trace"
)

// spanPhase groups the public calls a workload makes into the phases the
// span metrics report. A call missing here is still timed under its own
// name.
var spanPhase = map[string]string{
	"core.NewSystem":      "setup",
	"xfersched.New":       "setup",
	"objstore.NewGateway": "setup",
	"cluster.New":         "setup",

	"xfersched.SubmitAt": "submit",
	"objstore.Put":       "submit",
	"cluster.Generate":   "submit",
	"fio.buffers":        "submit",

	"xfersched.RunToCompletion": "run",
	"objstore.RunToCompletion":  "run",
	"cluster.Run":               "run",
	"fio.Run":                   "run",

	"objstore.AuditExactlyOnce": "check",
	"cluster.VerifyExactlyOnce": "check",
}

// probe is what the benchmark observes of one repetition from outside the
// program: wall-time spans around the public calls it makes, the moment it
// first drives the engine, and an optional tracer for the engine.
type probe struct {
	tracer   *countingTracer // nil in untraced repetitions
	spans    map[string]time.Duration
	runStart time.Time
}

func newProbe(tracer *countingTracer) *probe {
	return &probe{tracer: tracer, spans: map[string]time.Duration{}}
}

// span adds the time since start to the named call's total.
func (p *probe) span(name string, start time.Time) { p.spans[name] += time.Since(start) }

// startRun marks the end of setup: the next call drives the engine.
func (p *probe) startRun() { p.runStart = time.Now() }

// install puts the probe's tracer on an engine the workload built.
func (p *probe) install(eng *sim.Engine) {
	if p.tracer != nil {
		eng.SetTracer(p.tracer)
	}
}

// countingTracer counts trace events per subsystem and folds every event
// into a trace.Hasher digest.
type countingTracer struct {
	counts map[string]int
	hash   *trace.Hasher
}

var _ sim.Tracer = (*countingTracer)(nil)

func newCountingTracer() *countingTracer {
	return &countingTracer{counts: map[string]int{}, hash: trace.NewHasher()}
}

func (t *countingTracer) Event(now sim.Time, subsys, msg string) {
	t.counts[subsys]++
	t.hash.Event(now, subsys, msg)
}
