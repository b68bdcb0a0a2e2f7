// Command perfbench is the repository's benchmark: it runs one seeded
// workload of the simulator for a fixed wall time, checks the outcome of
// every unit of work, and prints its metrics. Run it through run.sh, which
// builds it from source first:
//
//	bash perfbench/run.sh --workload tiny-flood --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of untraced repetitions.
// With --trace 1 it interleaves untraced repetitions with traced ones (a
// counting tracer folding a SHA-256 digest, plus a CPU profile) and prints
// the per-layer metrics and the tracing overhead. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// procs pins GOMAXPROCS. The simulator is one goroutine; with a second P,
// idle spinning and GC workers on the sibling CPU made wall time swing
// between processes far more than the work did.
const procs = 1

// Each run makes at least this many measured repetitions (pairs, when
// traced), however short --seconds is.
const (
	minTimed  = 3
	minTraced = 2
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the untraced run's metrics with their units.
var endToEnd = [][2]string{
	{"units_per_s", "1/s"},
	{"setup_s", "s"},
	{"live_heap_mb", "MB"},
	{"alloc_kb_per_unit", "KB"},
	{"allocs_per_unit", "1"},
}

// modules are the layers a CPU-profile sample can be charged to; each is
// reported as self.<module>.
var modules = []string{
	"sim", "fluid", "numa", "host", "rftp", "iser", "rdma", "iscsi", "fio",
	"fabric", "xfersched", "objstore", "cluster", "gc", "trace", "other",
}

// traceSubsystems are the engine trace subsystems reported as trace.<name>.
var traceSubsystems = []string{"fluid", "rftp", "rdma", "iscsi", "fabric", "xfersched", "cluster"}

// counterUnits lists the public counters a workload may read, with units.
// A workload that does not exercise a layer reports its counters as 0.
var counterUnits = [][2]string{
	{"sim.events", "count"},
	{"sim.pending_left", "count"},
	{"fluid.full_solves", "count"},
	{"fluid.partial_solves", "count"},
	{"fluid.component_solves", "count"},
	{"fluid.fast_resolves", "count"},
	{"fluid.skips", "count"},
	{"fluid.flows_left", "count"},
	{"fluid.resources_left", "count"},
	{"fluid.active_left", "count"},
	{"fio.commands", "count"},
	{"fio.lat_p99_vs", "s"},
	{"xfersched.retries", "count"},
	{"xfersched.max_queue", "count"},
	{"xfersched.p99_wait_vs", "s"},
	{"objstore.windows", "count"},
	{"objstore.lookups", "count"},
	{"objstore.scans", "count"},
	{"cluster.decisions", "count"},
	{"cluster.decision_p99_us", "us"},
	{"cluster.ctrl_drops", "count"},
	{"cluster.ctrl_resends", "count"},
	{"cluster.digests", "count"},
	{"cluster.adjusts", "count"},
}

// sample is one measured repetition.
type sample struct {
	rep
	wall, setup         time.Duration
	spans               map[string]time.Duration
	allocBytes, mallocs uint64
	liveHeap            uint64
	gcCycles            uint32
	gcPause             time.Duration
	gcCPU               float64
	tracer              *countingTracer
}

// gcCPUSeconds reads the runtime's estimate of CPU time spent on GC.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// measure runs one repetition. Allocation counts cover setup and run; the
// live heap is read after a forced GC while the system is still reachable.
// A non-nil prof profiles the repetition's CPU, excluding that GC.
func measure(w workload, seed int64, tracer *countingTracer, prof *cpuProfile) (sample, error) {
	p := newProbe(tracer)
	var before, after, settled runtime.MemStats
	gcBefore := gcCPUSeconds()
	runtime.ReadMemStats(&before)
	var buf bytes.Buffer
	if prof != nil {
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return sample{}, err
		}
	}
	start := time.Now()
	r, err := w.run(seed, p)
	wall := time.Since(start)
	if prof != nil {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&after)
	gcAfter := gcCPUSeconds()
	if err != nil {
		return sample{}, err
	}
	if prof != nil {
		if err := prof.add(buf.Bytes()); err != nil {
			return sample{}, err
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&settled)
	runtime.KeepAlive(r.keep)
	r.keep = nil
	return sample{
		rep: r, wall: wall, setup: p.runStart.Sub(start), spans: p.spans,
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		mallocs:    after.Mallocs - before.Mallocs,
		liveHeap:   settled.HeapAlloc,
		gcCycles:   after.NumGC - before.NumGC,
		gcPause:    time.Duration(after.PauseTotalNs - before.PauseTotalNs),
		gcCPU:      gcAfter - gcBefore,
		tracer:     tracer,
	}, nil
}

// median returns the median of f over the samples.
func median(samples []sample, f func(sample) float64) float64 {
	v := make([]float64, len(samples))
	for i, s := range samples {
		v[i] = f(s)
	}
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// tally counts units attempted and failed. A repetition whose fingerprint
// differs from the reference fails every unit it attempted.
func tally(ref string, samples []sample) (attempted, failed int) {
	for _, s := range samples {
		attempted += s.units
		if s.fingerprint != ref {
			failed += s.units
		} else {
			failed += s.failed
		}
	}
	return attempted, failed
}

// run measures one workload for d of wall time after an untimed warm-up
// repetition, traced or not.
func run(w workload, seed int64, d time.Duration, traced bool) (result, []string, error) {
	warm, err := measure(w, seed, nil, nil)
	if err != nil {
		return result{}, nil, err
	}
	if traced {
		return runTraced(w, seed, d, warm)
	}
	var samples []sample
	for deadline := time.Now().Add(d); len(samples) < minTimed || time.Now().Before(deadline); {
		s, err := measure(w, seed, nil, nil)
		if err != nil {
			return result{}, nil, err
		}
		samples = append(samples, s)
	}
	res := result{Metrics: map[string]metric{}}
	res.Attempted, res.Failed = tally(warm.fingerprint, append([]sample{warm}, samples...))
	res.Correct = res.Failed == 0

	var units, allocBytes, mallocs float64
	var wall time.Duration
	for _, s := range samples {
		units += float64(s.units)
		wall += s.wall
		allocBytes += float64(s.allocBytes)
		mallocs += float64(s.mallocs)
	}
	values := map[string]float64{
		"units_per_s":       median(samples, func(s sample) float64 { return float64(s.units) / s.wall.Seconds() }),
		"setup_s":           median(samples, func(s sample) float64 { return s.setup.Seconds() }),
		"live_heap_mb":      median(samples, func(s sample) float64 { return float64(s.liveHeap) / 1e6 }),
		"alloc_kb_per_unit": allocBytes / units / 1e3,
		"allocs_per_unit":   mallocs / units,
	}
	for _, m := range endToEnd {
		res.Metrics[m[0]] = metric{values[m[0]], m[1]}
	}
	walls := make([]string, len(samples))
	for i, s := range samples {
		walls[i] = fmt.Sprintf("%.3f", s.wall.Seconds())
	}
	notes := []string{
		fmt.Sprintf("%d timed repetitions in %.2f s, %s", len(samples), wall.Seconds(), warm.fingerprint),
		"repetition wall seconds: " + strings.Join(walls, " "),
	}
	return res, notes, nil
}

// runTraced alternates untraced and traced repetitions. Timings (spans,
// GC) come from the untraced ones, counts from the traced ones, and the
// CPU profile covers the traced ones. Every traced repetition must
// reproduce the first one's digest, trace counts and fluid/engine counts;
// one that does not fails all its units.
func runTraced(w workload, seed int64, d time.Duration, warm sample) (result, []string, error) {
	prof := newCPUProfile()
	var plain, traced []sample
	for deadline := time.Now().Add(d); len(traced) < minTraced || time.Now().Before(deadline); {
		s, err := measure(w, seed, nil, nil)
		if err != nil {
			return result{}, nil, err
		}
		plain = append(plain, s)
		s, err = measure(w, seed, newCountingTracer(), prof)
		if err != nil {
			return result{}, nil, err
		}
		traced = append(traced, s)
	}
	res := result{Metrics: map[string]metric{}}
	res.Attempted, res.Failed = tally(warm.fingerprint, append(append([]sample{warm}, plain...), traced...))
	first := traced[0]
	digest := first.tracer.hash.Sum()
	for _, s := range traced[1:] {
		if s.fingerprint == warm.fingerprint && !sameTrace(first, s) {
			res.Failed += s.units - s.failed
		}
	}
	res.Correct = res.Failed == 0

	set := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	spanMedian := func(f func(sample) time.Duration) float64 {
		return median(plain, func(s sample) float64 { return f(s).Seconds() })
	}
	set("span.setup_s", "s", spanMedian(func(s sample) time.Duration { return phase(s.spans, "setup") }))
	set("span.submit_s", "s", spanMedian(func(s sample) time.Duration { return phase(s.spans, "submit") }))
	set("span.run_s", "s", spanMedian(func(s sample) time.Duration { return phase(s.spans, "run") }))
	set("span.put_s", "s", spanMedian(func(s sample) time.Duration { return s.spans["objstore.Put"] }))
	for _, m := range modules {
		set("self."+m, "share", prof.share(m))
	}
	total := 0
	for _, n := range first.tracer.counts {
		total += n
	}
	for _, sub := range traceSubsystems {
		set("trace."+sub, "count", float64(first.tracer.counts[sub]))
	}
	set("trace.events", "count", float64(total))
	overhead := median(traced, func(s sample) float64 { return s.wall.Seconds() }) /
		median(plain, func(s sample) float64 { return s.wall.Seconds() })
	set("trace.overhead", "ratio", overhead)
	var absent []string
	for _, c := range counterUnits {
		v, ok := first.counters[c[0]]
		if !ok {
			absent = append(absent, c[0])
		}
		set(c[0], c[1], v)
	}
	set("gc.cycles", "count", median(plain, func(s sample) float64 { return float64(s.gcCycles) }))
	set("gc.cpu_s", "s", median(plain, func(s sample) float64 { return s.gcCPU }))
	set("gc.pause_s", "s", spanMedian(func(s sample) time.Duration { return s.gcPause }))

	notes := []string{
		fmt.Sprintf("%d untraced + %d traced repetitions, %s", len(plain), len(traced), warm.fingerprint),
		fmt.Sprintf("trace sha256 %s over %d events; %d CPU samples; tracing overhead %.3fx", digest, total, prof.total, overhead),
	}
	if len(absent) > 0 {
		notes = append(notes, "reported as 0, layer not exercised by this workload: "+strings.Join(absent, " "))
	}
	return res, notes, nil
}

// phase sums the spans of one phase (see spanPhase).
func phase(spans map[string]time.Duration, name string) time.Duration {
	var d time.Duration
	for call, v := range spans {
		if spanPhase[call] == name {
			d += v
		}
	}
	return d
}

// sameTrace reports whether two traced repetitions produced the same
// digest, the same per-subsystem trace counts, and the same engine and
// fluid counters.
func sameTrace(a, b sample) bool {
	if a.tracer.hash.Sum() != b.tracer.hash.Sum() || !maps.Equal(a.tracer.counts, b.tracer.counts) {
		return false
	}
	for name, v := range a.counters {
		if (strings.HasPrefix(name, "fluid.") || strings.HasPrefix(name, "sim.")) && b.counters[name] != v {
			return false
		}
	}
	return true
}

func main() {
	runtime.GOMAXPROCS(procs)
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "wall seconds of measured repetitions")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer run, 0 the end-to-end run")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds ≥ 0, --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	res, notes, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	fmt.Printf("perfbench: workload %s, unit %s, seed %d, GOMAXPROCS %d\n", *name, w.unit(), *seed, procs)
	for _, n := range notes {
		fmt.Println("  " + n)
	}
	fmt.Printf("  %d units attempted, %d failed\n", res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-26s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
