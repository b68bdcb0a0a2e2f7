// Command xfersched runs the multi-tenant transfer scheduling service over
// the simulated Figure 5 system: it generates a job trace, replays it
// through admission control, weighted fair-share stream arbitration and
// failure-driven retry, and prints per-tenant, per-job and aggregate
// outcome tables.
//
// Usage:
//
//	xfersched                            # default 24-job mixed trace
//	xfersched -jobs 40 -rate 120         # 40 jobs offered at 120 jobs/min
//	xfersched -tenants astro:3,bio:1     # tenant weights (mix + fair share)
//	xfersched -fail 5 -failfor 10        # front link 0 dark from t=5s to t=15s
//	xfersched -chaos 2 -chaosseed 9      # seeded fault schedule, MTBF 2s
//	xfersched -recover=false             # disable in-protocol recovery
//	xfersched -rails -kill-rail roce1@5  # rail mgmt on; roce1 dies for good at t=5s
//	xfersched -corrupt 3 -checksum       # 3 seeded silent bit flips, caught end to end
//	xfersched -gray roce1@5:0.7          # roce1 silently sags to 30% at t=5s; outlier scorer armed
//	xfersched -gray roce1@5:0.7 -hedge   # …and hedged windows race the sick rail's tail
//	xfersched -trace jobs.txt            # replay a job trace file
//	xfersched -concurrent 8 -streams 12  # admission and stream budgets
//	xfersched -seed 7 -md -v             # reseed, markdown, per-job table
//
// Cluster mode swaps the single Figure 5 pair for a datacenter fabric of
// simulated hosts under the sharded control plane (internal/cluster):
//
//	xfersched -cluster -hosts 100 -shards 4 -drop 5 -seed 7
//	xfersched -cluster -hosts 300 -topology fat-tree -ctenants 3000
//	xfersched -cluster -hosts 100 -ctenants 500 -drop 5 -replay-check
//
// Cluster mode has its own failure domains — crash-stop hosts, crash-stop
// shard controllers, control-plane partitions, and spine-switch outages —
// each virtual-time-stamped so the chaos timeline replays bit-identically:
//
//	xfersched -cluster -hosts 100 -kill-host 7@8+8       # host 7 dark 8s..16s
//	xfersched -cluster -gray 3@8+6:0.95 -shed            # host 3 limps to 5% 8s..14s; scorer + shed valve armed
//	xfersched -cluster -kill-ctrl 0@15                   # leader controller dies at 15s
//	xfersched -cluster -partition 5,6,7@20+6             # shards 5-7 severed 20s..26s
//	xfersched -cluster -kill-spine 1@10+5 -replay-check  # spine 1 dark 10s..15s
//
// The targeted fault flags (-kill-rail, -gray, -kill-host, -kill-ctrl,
// -partition, -kill-spine) all read target@seconds[+window][:severity].
// Whatever schedule a run injects is echoed alongside the outcome tables,
// so a report records exactly what the run survived.
//
// A single-pair run goes through experiments.RunSchedPoint, the harness S1
// uses, with its two-hour virtual-time budget; a cluster run goes through
// experiments.RunClusterPoint, the harness S5 and S6 use.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"e2edt/internal/cluster"
	"e2edt/internal/experiments"
	"e2edt/internal/fabric"
	"e2edt/internal/faults"
	"e2edt/internal/fluid"
	"e2edt/internal/metrics"
	"e2edt/internal/railmgr"
	"e2edt/internal/sim"
	"e2edt/internal/units"
	"e2edt/internal/xfersched"
)

// The -chaos schedule's shape besides its rate and seed.
const (
	chaosOutage  sim.Duration = 0.3 // mean fault window
	chaosDegrade              = 0.5 // surviving capacity in a degradation window
	chaosHorizon sim.Duration = 30  // faults start within this span
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args into one single-pair or cluster run, drives it through
// its experiments harness and prints the outcome; it returns the process
// exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xfersched", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jobs := fs.Int("jobs", 24, "trace length (number of jobs)")
	rate := fs.Float64("rate", 30, "offered load in jobs per minute")
	seed := fs.Int64("seed", 1, "trace PRNG seed")
	minSize := fs.String("min", "2GB", "minimum job size")
	maxSize := fs.String("max", "12GB", "maximum job size")
	gridftp := fs.Float64("gridftp", 0.2, "fraction of jobs using the GridFTP baseline")
	reverse := fs.Float64("reverse", 0.25, "fraction of jobs flowing B→A")
	tenants := fs.String("tenants", "astro:2,bio:1,climate:1", "tenant:weight list")
	concurrent := fs.Int("concurrent", 4, "admission cap on running jobs")
	streams := fs.Int("streams", 6, "total RFTP stream budget across running jobs")
	failAt := fs.Float64("fail", 0, "fail front link 0 at this virtual second (0 = no failure)")
	failFor := fs.Float64("failfor", 10, "failure window length in virtual seconds")
	chaos := fs.Float64("chaos", 0, "mean seconds between injected faults on the front fabric (0 = off)")
	chaosSeed := fs.Int64("chaosseed", 42, "fault-schedule PRNG seed")
	recover := fs.Bool("recover", true, "enable in-protocol recovery (RDMA/RFTP/iSER); the watchdog stays as second line of defense")
	rails := fs.Bool("rails", false, "enable rail health management: failover, credit rebalance and failback (requires -recover)")
	killRail := fs.String("kill-rail", "", "permanently kill a front rail, as name@seconds (e.g. roce1@5); implies -rails")
	grayFlag := fs.String("gray", "", "gray failure: name@seconds:severity silently sags a front rail (e.g. roce1@5:0.7); cluster mode: id@seconds+window:severity limps a host's cores (e.g. 3@8+6:0.95). Arms the outlier scorer")
	hedge := fs.Bool("hedge", false, "arm tail-tolerant hedged windows: lagging streams re-issue on the best trusted rail, first completion wins (implies -rails with gray detection)")
	shed := fs.Bool("shed", false, "cluster mode: arm the gray host scorer and the admission shed valve (low-priority jobs held while a host is under a verdict)")
	corrupt := fs.Int("corrupt", 0, "inject this many seeded silent bit flips across the front rails")
	corruptSeed := fs.Int64("corruptseed", 7, "corruption-schedule PRNG seed")
	checksum := fs.Bool("checksum", false, "enable RFTP end-to-end block checksums (the only layer that catches silent corruption)")
	traceFile := fs.String("trace", "", "replay a job trace file (see xfersched.ParseTrace) instead of generating one")
	md := fs.Bool("md", false, "emit tables as markdown")
	utilz := fs.Bool("utilz", false, "dump the busiest fluid resource utilization snapshot (loaded resources only)")
	verbose := fs.Bool("v", false, "include the per-job table")
	clusterMode := fs.Bool("cluster", false, "run the datacenter cluster fabric instead of the single Figure 5 pair")
	hosts := fs.Int("hosts", 100, "cluster mode: number of simulated hosts")
	shards := fs.Int("shards", 4, "cluster mode: control-plane shard count")
	drop := fs.Float64("drop", 0, "cluster mode: control-RPC drop percentage (0-100)")
	topology := fs.String("topology", "leaf-spine", "cluster mode: fabric topology (leaf-spine|fat-tree)")
	ctenants := fs.Int("ctenants", 0, "cluster mode: tenant count (default 10 per host)")
	cjobs := fs.Int("cjobs", 0, "cluster mode: job count (default 2 per tenant)")
	replayCheck := fs.Bool("replay-check", false, "cluster mode: run the scenario twice and fail unless the traces hash identically")
	killHost := fs.String("kill-host", "", "cluster mode: crash-stop a host, as id@seconds[+downtime] (e.g. 7@8+8; no +downtime = never restarts)")
	killCtrl := fs.String("kill-ctrl", "", "cluster mode: permanently crash-stop a shard controller, as shard@seconds (e.g. 0@15)")
	killSpine := fs.String("kill-spine", "", "cluster mode: take a top-stage switch dark (a spine on leaf-spine, a core on fat-tree), as id@seconds[+downtime]")
	partition := fs.String("partition", "", "cluster mode: sever shards from the control plane, as ids@seconds+window (e.g. 5,6,7@20+6)")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	if *clusterMode {
		if *hedge {
			return fail(stderr, 1, fmt.Errorf("-hedge is a single-pair flag: cluster transfers hedge at the host level via -shed"))
		}
		return runCluster(clusterFlags{
			hosts: *hosts, shards: *shards, drop: *drop, topology: *topology,
			tenants: *ctenants, jobs: *cjobs, seed: *seed,
			replayCheck: *replayCheck, md: *md,
			killHost: *killHost, killCtrl: *killCtrl,
			killSpine: *killSpine, partition: *partition,
			gray: *grayFlag, shed: *shed,
		}, stdout, stderr)
	}
	if *shed {
		return fail(stderr, 1, fmt.Errorf("-shed is a cluster-mode flag: admission shedding needs the sharded control plane (add -cluster)"))
	}

	minB, err := units.ParseBlockSize(*minSize)
	if err != nil {
		return fail(stderr, 1, err)
	}
	maxB, err := units.ParseBlockSize(*maxSize)
	if err != nil {
		return fail(stderr, 1, err)
	}
	tList, err := parseTenants(*tenants)
	if err != nil {
		return fail(stderr, 1, err)
	}
	tc := xfersched.TraceConfig{
		Seed:            *seed,
		Jobs:            *jobs,
		JobsPerMinute:   *rate,
		Tenants:         tList,
		MinBytes:        minB,
		MaxBytes:        maxB,
		GridFTPFraction: *gridftp,
		ReverseFraction: *reverse,
		PriorityLevels:  2,
	}
	spec := experiments.NewSchedRunSpec()
	spec.Tenants = tList
	if *traceFile == "" {
		if err := tc.Validate(); err != nil {
			var fe interface{ Field() string }
			if errors.As(err, &fe) {
				err = fmt.Errorf("%w (flag -%s)", err, traceFlags[fe.Field()])
			}
			fmt.Fprintln(stderr, err)
			return 2
		}
		spec.Trace = xfersched.GenerateTrace(tc)
	} else {
		text, err := os.ReadFile(*traceFile)
		if err != nil {
			return fail(stderr, 1, err)
		}
		if spec.Trace, err = xfersched.ParseTrace(string(text)); err != nil {
			return fail(stderr, 1, err)
		}
	}

	gray := *grayFlag != "" || *hedge
	spec.Options.Recovery = *recover
	if *rails || *killRail != "" || gray {
		if !*recover {
			return fail(stderr, 1, fmt.Errorf("-rails and -kill-rail need in-protocol recovery; drop -recover=false"))
		}
		spec.Options.Rails = railmgr.DefaultPolicy()
		// Gray injection is silent: only the peer-comparison scorer (and,
		// with -hedge, the adaptive deadline) can react to it.
		spec.Options.Rails.Gray = gray
	}
	spec.Config.MaxConcurrent = *concurrent
	spec.Config.StreamBudget = *streams
	spec.Config.RFTP.Checksum = *checksum
	spec.Config.RFTPParams.Hedge = *hedge
	spec.Sample = *utilz
	spec.Plan = func(links []*fabric.Link, plan *faults.Plan) error {
		if err := addLinkFaults(plan, *failAt, *failFor, *killRail, *grayFlag, links); err != nil {
			return flagError{err}
		}
		rng := rand.New(rand.NewSource(*corruptSeed))
		for i := 0; i < *corrupt; i++ {
			link := links[rng.Intn(len(links))]
			plan.Corrupt(link, sim.Time(0.2+rng.Float64()*2))
		}
		if *chaos > 0 {
			plan.Events = append(plan.Events, faults.Chaos(faults.ChaosConfig{
				Seed:            *chaosSeed,
				Horizon:         chaosHorizon,
				Start:           sim.Time(100 * sim.Millisecond),
				MeanBetween:     sim.Duration(*chaos),
				MeanOutage:      chaosOutage,
				DegradeFraction: chaosDegrade,
				FlapWeight:      3,
				DegradeWeight:   1,
				BurstWeight:     1,
			}, links...).Events...)
		}
		return nil
	}

	// A contradictory schedule (e.g. a gray sag inside a -fail or -chaos
	// outage window) comes back with the validator's own error text before
	// anything runs.
	res, err := experiments.RunSchedPoint(spec)
	if err != nil {
		var fe flagError
		if errors.As(err, &fe) {
			return fail(stderr, 2, err)
		}
		return fail(stderr, 1, err)
	}
	r := res.Report
	tables := []*metrics.Table{r.SummaryTable(), r.TenantTable(), r.GrayTable()}
	if *verbose {
		tables = append(tables, res.Jobs)
	}
	if *utilz {
		tables = append(tables, utilzTable(res.Busiest))
	}
	for _, tb := range tables {
		if *md {
			fmt.Fprintln(stdout, tb.Markdown())
		} else {
			fmt.Fprintln(stdout, tb)
		}
	}
	if !res.Plan.Empty() {
		printPlan(stdout, res.Plan, *md)
	}
	if !res.Drained {
		fmt.Fprintf(stderr, "xfersched: virtual-time budget %.0fs exhausted with jobs unfinished\n", float64(experiments.SchedHorizon))
		return 1
	}
	// A gray run is audited like the cluster chaos runs: the silent sag must
	// cost performance, never deliveries.
	if gray {
		if r.Lost > 0 {
			fmt.Fprintf(stderr, "xfersched: delivery audit FAILED: gray run lost %d jobs\n", r.Lost)
			return 1
		}
		fmt.Fprintln(stdout, "delivery audit: OK (every job completed despite the gray schedule)")
	}
	return 0
}

// flagError marks a fault flag the plan hook rejects: exit status 2, as
// the flag package gives a value it cannot parse.
type flagError struct{ error }

// clusterFlags carries the cluster-mode CLI knobs.
type clusterFlags struct {
	hosts, shards int
	drop          float64
	topology      string
	tenants, jobs int
	seed          int64
	replayCheck   bool
	md            bool

	killHost, killCtrl, killSpine, partition string

	// gray limps a host (id@seconds+window:severity); shed arms the host
	// scorer and the admission shed valve. A gray limp arms the scorer too
	// — an undetectable injection tests nothing.
	gray string
	shed bool
}

// runCluster drives the sharded-control-plane fabric scenario and prints
// the cluster report. With -replay-check the scenario runs twice and the
// run fails unless both traces hash identically — the determinism
// contract the CI smoke asserts.
func runCluster(f clusterFlags, stdout, stderr io.Writer) int {
	kind, err := fabric.ParseTopoKind(f.topology)
	if err != nil {
		return fail(stderr, 1, err)
	}
	if f.tenants <= 0 {
		f.tenants = 10 * f.hosts
	}
	if f.jobs <= 0 {
		f.jobs = 2 * f.tenants
	}
	// Reject invalid shapes before the run starts, with the model's own
	// error text: the CLI surfaces what cluster.Config.Validate rejects
	// rather than silently repairing it.
	cfg := cluster.Config{
		Hosts: f.hosts, Shards: f.shards, DropPct: f.drop, Topology: kind, Seed: f.seed,
		Gray: f.gray != "" || f.shed,
	}
	if err := cfg.Validate(); err != nil {
		return fail(stderr, 1, err)
	}
	chaos, err := clusterPlan(f, cfg.TopSwitches())
	if err != nil {
		return fail(stderr, 2, err)
	}
	// Each flag passed its own checks; reject a contradictory timeline (a
	// crash-stop inside a limp window) with the validator's own text.
	if err := chaos.Validate(); err != nil {
		return fail(stderr, 1, err)
	}
	spec := experiments.ClusterRunSpec{Config: cfg, Tenants: f.tenants, Jobs: f.jobs, Chaos: chaos}
	res := experiments.RunClusterPoint(spec)
	// Echo the schedule and topology the run used, in the -chaos/-rails
	// fault-plan style: a report records exactly what was simulated.
	fmt.Fprintf(stdout, "cluster: %s\n", res.Topology)
	fmt.Fprintf(stdout, "schedule: %d shards, %d tenants, %d jobs, drop %.1f%%, seed %d\n",
		f.shards, f.tenants, f.jobs, f.drop, f.seed)
	if !chaos.Empty() {
		printPlan(stdout, chaos, f.md)
	}
	if spec.Gray {
		fmt.Fprintln(stdout, "gray: host outlier scorer and admission shed valve armed")
	}
	tb := res.Report.Table()
	if f.md {
		fmt.Fprintln(stdout, tb.Markdown())
	} else {
		fmt.Fprintln(stdout, tb)
	}
	fmt.Fprintf(stdout, "replay sha256: %s (%d events, %.1fs wall)\n", res.TraceSHA, res.TraceEvents, res.WallSeconds)
	if res.ExactlyOnce != nil {
		fmt.Fprintf(stderr, "xfersched: delivery audit FAILED: %v\n", res.ExactlyOnce)
		return 1
	}
	if res.DegradedAtEnd != 0 {
		fmt.Fprintf(stderr, "xfersched: %d shards still degraded at end of run\n", res.DegradedAtEnd)
		return 1
	}
	if !chaos.Empty() {
		fmt.Fprintln(stdout, "delivery audit: OK (every done job completed exactly once; byte ledgers agree)")
	}
	if f.replayCheck {
		again := experiments.RunClusterPoint(spec)
		if again.TraceSHA != res.TraceSHA {
			fmt.Fprintf(stderr, "xfersched: replay check FAILED: %s vs %s\n", res.TraceSHA, again.TraceSHA)
			return 1
		}
		fmt.Fprintf(stdout, "replay check: OK (second run bit-identical, %d events)\n", again.TraceEvents)
	}
	return 0
}

// addLinkFaults adds the single-pair link faults: the -fail/-failfor
// window on front link 0 (failAt 0 = none), -kill-rail name@seconds and
// -gray name@seconds:severity.
func addLinkFaults(plan *faults.Plan, failAt, failFor float64, killRail, gray string, links []*fabric.Link) error {
	if failAt < 0 || math.IsNaN(failAt) || math.IsInf(failAt, 0) {
		return fmt.Errorf("bad -fail %g: want a virtual second, or 0 for no failure", failAt)
	}
	if failAt > 0 {
		if !(failFor > 0) || math.IsInf(failFor, 1) {
			return fmt.Errorf("bad -failfor %g: want a positive window in virtual seconds", failFor)
		}
		plan.FailWindow(links[0], sim.Time(failAt), sim.Duration(failFor))
	}
	if killRail != "" {
		a, err := parseFault("-kill-rail", "name@seconds, e.g. roce1@5", "", "", killRail)
		link, err := a.rail(err, links)
		if err != nil {
			return err
		}
		plan.PermanentFail(link, sim.Time(a.at))
	}
	if gray != "" {
		a, err := parseFault("-gray", "name@seconds:severity, e.g. roce1@5:0.7", ":", ":", gray)
		link, err := a.rail(err, links)
		if err == nil && (a.severity <= 0 || a.severity >= 1) {
			err = fmt.Errorf("bad -gray severity %q: want a fraction in (0, 1) — the sag must be partial, or it is not gray", a.sevStr)
		}
		if err != nil {
			return err
		}
		plan.SlowRail(link, sim.Time(a.at), a.severity)
	}
	return nil
}

// clusterPlan builds the cluster-mode fault timeline from the CLI knobs:
// host kills first, then controller kills, partitions, limps and spine
// outages, which fixes the order of same-instant ties.
func clusterPlan(f clusterFlags, topSwitches int) (*faults.Plan, error) {
	plan := &faults.Plan{}
	const idForm = "id@seconds[+downtime], e.g. 7@8+8"
	if f.killHost != "" {
		a, err := parseFault("-kill-host", idForm, "+", "", f.killHost)
		id, err := a.index(err, f.hosts, "hosts")
		if err != nil {
			return nil, err
		}
		plan.HostOutage(id, sim.Time(a.at), sim.Duration(a.window))
	}
	if f.killCtrl != "" {
		a, err := parseFault("-kill-ctrl", idForm, "+", "", f.killCtrl)
		if err == nil && a.hasWindow {
			err = fmt.Errorf("-kill-ctrl: controller crashes are permanent; drop the +downtime")
		}
		id, err := a.index(err, f.shards, "shards")
		if err != nil {
			return nil, err
		}
		plan.KillController(id, sim.Time(a.at))
	}
	if f.partition != "" {
		a, err := parseFault("-partition", "ids@seconds+window, e.g. 5,6,7@20+6", "+", "", f.partition)
		if err != nil {
			return nil, err
		}
		var ids []int
		for _, s := range strings.Split(a.target, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return nil, fmt.Errorf("bad -partition shard id %q", s)
			}
			if id < 0 || id >= f.shards {
				return nil, fmt.Errorf("-partition shard %d: the run has shards 0..%d", id, f.shards-1)
			}
			ids = append(ids, id)
		}
		if !a.hasWindow {
			return nil, fmt.Errorf("bad -partition %q: a partition needs a heal window, e.g. @20+6", f.partition)
		}
		if a.at < 0 || a.window <= 0 {
			return nil, fmt.Errorf("bad -partition window %q: want seconds+window, both positive", a.atStr+"+"+a.winStr)
		}
		plan.PartitionWindow(ids, sim.Time(a.at), sim.Duration(a.window))
	}
	if f.gray != "" {
		a, err := parseFault("-gray", "id@seconds+window:severity, e.g. 3@8+6:0.95", "+:", ":", f.gray)
		if err == nil && !a.hasWindow {
			err = fmt.Errorf("bad -gray %q: a limp needs a recovery window, e.g. 3@8+6:0.95", f.gray)
		}
		id, err := a.index(err, f.hosts, "hosts")
		if err == nil && (a.severity <= 0 || a.severity >= 1) {
			err = fmt.Errorf("bad -gray severity %q: want a fraction in (0, 1) — the host must limp, not die", a.sevStr)
		}
		if err != nil {
			return nil, err
		}
		plan.LimpWindow(id, sim.Time(a.at), sim.Duration(a.window), 1-a.severity)
	}
	if f.killSpine != "" {
		a, err := parseFault("-kill-spine", idForm, "+", "", f.killSpine)
		id, err := a.index(err, topSwitches, "top-stage switches")
		if err != nil {
			return nil, err
		}
		plan.SpineOutage(id, sim.Time(a.at), sim.Duration(a.window))
	}
	return plan, nil
}

// faultArg is one fault flag value, target@seconds[+window][:severity],
// cut into its parts; each flag range-checks the parts it takes.
type faultArg struct {
	flag, target          string
	at, window, severity  float64
	hasWindow             bool
	atStr, winStr, sevStr string // the numbers as given, for error text
}

// parseFault reads a fault flag's value as target@seconds[+window][:severity].
// takes lists the optional parts the flag accepts ("+" window, ":"
// severity) and needs those it requires. A value without a target, with a
// part the flag does not take or lacking one it needs, or with a number
// that does not parse to a finite value is refused with form, the flag's
// accepted shape and an example.
func parseFault(flag, form, takes, needs, s string) (faultArg, error) {
	a := faultArg{flag: flag}
	bad := fmt.Errorf("bad %s %q: want %s", flag, s, form)
	target, rest, ok := strings.Cut(s, "@")
	if !ok || target == "" {
		return a, bad
	}
	a.target = target
	rest, a.sevStr, ok = strings.Cut(rest, ":")
	a.atStr, a.winStr, a.hasWindow = strings.Cut(rest, "+")
	fits := func(part string, has bool) bool {
		return has && strings.Contains(takes, part) || !has && !strings.Contains(needs, part)
	}
	num := func(s string, v *float64) bool {
		var err error
		*v, err = strconv.ParseFloat(s, 64)
		return err == nil && !math.IsNaN(*v) && !math.IsInf(*v, 0)
	}
	if !fits("+", a.hasWindow) || !fits(":", ok) || !num(a.atStr, &a.at) ||
		a.hasWindow && !num(a.winStr, &a.window) || ok && !num(a.sevStr, &a.severity) {
		return a, bad
	}
	return a, nil
}

// index reads a cluster flag's target as an id in [0, n) of noun (hosts,
// shards, switches), checking its time is a non-negative virtual second
// and any window a positive duration. err, from an earlier check, is
// returned as is.
func (a faultArg) index(err error, n int, noun string) (int, error) {
	if err != nil {
		return 0, err
	}
	id, err := strconv.Atoi(a.target)
	switch {
	case err != nil || id < 0:
		return 0, fmt.Errorf("bad %s id %q", a.flag, a.target)
	case id >= n:
		return 0, fmt.Errorf("%s %d: the run has %s 0..%d", a.flag, id, noun, n-1)
	case a.at < 0:
		return 0, fmt.Errorf("bad %s time %q: want a non-negative virtual second", a.flag, a.atStr)
	case a.hasWindow && a.window <= 0:
		return 0, fmt.Errorf("bad %s downtime %q: want a positive duration", a.flag, a.winStr)
	}
	return id, nil
}

// rail resolves a single-pair flag's target among the front rails,
// checking its time is a positive virtual second. err, from parseFault,
// is returned as is.
func (a faultArg) rail(err error, links []*fabric.Link) (*fabric.Link, error) {
	if err != nil {
		return nil, err
	}
	if a.at <= 0 {
		return nil, fmt.Errorf("bad %s time %q: want a positive virtual second", a.flag, a.atStr)
	}
	var names []string
	for _, l := range links {
		if l.Cfg.Name == a.target {
			return l, nil
		}
		names = append(names, l.Cfg.Name)
	}
	return nil, fmt.Errorf("%s: no front rail named %q (have %s)",
		a.flag, a.target, strings.Join(names, ", "))
}

// printPlan echoes the injected fault schedule, so a report records
// exactly what the run survived.
func printPlan(w io.Writer, plan *faults.Plan, md bool) {
	if md {
		fmt.Fprintln(w, "#### Injected fault schedule")
		fmt.Fprintln(w)
		fmt.Fprintln(w, plan.MarkdownTable())
	} else {
		fmt.Fprintln(w, "Injected fault schedule:")
		fmt.Fprintln(w, plan.String())
	}
}

// utilzTable renders the fluid utilization snapshot, dropping never-loaded
// resources so the dump stays readable on a testbed with hundreds of cores.
func utilzTable(us []fluid.ResourceUtil) *metrics.Table {
	t := &metrics.Table{
		Title:   "Fluid resource utilization (busiest 100ms sample)",
		Headers: []string{"resource", "capacity", "load", "demand", "share", "saturated"},
	}
	for _, u := range us {
		if u.Load <= 0 && u.Demand <= 0 {
			continue
		}
		sat := ""
		if u.Saturated() {
			sat = "yes"
		}
		t.AddRow(u.Name, fmt.Sprintf("%.3g", u.Capacity), fmt.Sprintf("%.3g", u.Load),
			fmt.Sprintf("%.3g", u.Demand), fmt.Sprintf("%.3f", u.Share), sat)
	}
	return t
}

// parseTenants reads "name:weight,name:weight" (weight defaults to 1).
func parseTenants(s string) ([]xfersched.TraceTenant, error) {
	var out []xfersched.TraceTenant
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, wstr, found := strings.Cut(part, ":")
		w := 1.0
		if found {
			var err error
			w, err = strconv.ParseFloat(wstr, 64)
			if err != nil || w <= 0 {
				return nil, fmt.Errorf("bad tenant weight %q", part)
			}
		}
		out = append(out, xfersched.TraceTenant{Name: name, Weight: w})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no tenants in %q", s)
	}
	return out, nil
}

// traceFlags names the flag behind each TraceConfig field Validate checks.
var traceFlags = map[string]string{
	"Jobs": "jobs", "JobsPerMinute": "rate", "MinBytes": "min", "MaxBytes": "max",
	"GridFTPFraction": "gridftp", "ReverseFraction": "reverse",
}

// fail reports err on stderr and returns status: 1 for a run that cannot
// proceed, 2 for a malformed or out-of-range flag value, as the flag
// package exits for a value it cannot parse.
func fail(stderr io.Writer, status int, err error) int {
	fmt.Fprintln(stderr, "xfersched:", err)
	return status
}
