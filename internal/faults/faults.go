// Package faults is a deterministic fault-injection plane over the
// simulated fabric. A Plan is an explicit, seeded schedule of link
// transitions — flaps (fail/restore), partial degradation, and RDMA error
// bursts — applied at exact virtual times. Because the simulation is
// single-threaded and the schedule is data, the same plan over the same
// topology reproduces a bit-identical event trace: chaos experiments are
// replayable.
//
// Beyond link faults, a plan can schedule cluster-scale failure domains:
// crash-stop host failures (with optional cold restart), shard-controller
// crashes, control-plane partitions, host limps and top-stage switch
// outages. Those events have no fabric.Link target; they are delivered to a
// Sink — implemented by internal/cluster — through ApplyTo, keeping the
// whole failure schedule in one replayable data structure.
//
// Two ways to build a plan: compose windows by hand (FailWindow,
// DegradeWindow, Burst, HostOutage, KillController, PartitionWindow,
// SpineOutage) for acceptance tests and scenarios, or draw a link-fault
// schedule from a seeded generator (Chaos) for sweep experiments. Either
// way, ApplyTo runs Validate first: a contradictory plan never runs.
package faults

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"e2edt/internal/fabric"
	"e2edt/internal/sim"
)

// Kind classifies one scheduled fault action.
type Kind int

const (
	// LinkFail takes the link dark (capacity → 0, control messages drop).
	LinkFail Kind = iota
	// LinkRestore repairs the link (capacity returns, scaled by any
	// standing degradation).
	LinkRestore
	// LinkDegrade scales the link to Fraction × rate without going dark.
	LinkDegrade
	// ErrorBurst raises RDMA error completions without touching capacity.
	ErrorBurst
	// Corrupt injects a silent bit flip: the block in flight arrives wrong
	// with no link-level or RDMA-level indication. Only an end-to-end
	// integrity check can catch it.
	Corrupt
	// HostFail crash-stops a simulated cluster host: its NICs go dark, its
	// staging memory is lost, and it stops heartbeating. Delivered to a
	// Sink (cluster events have no Link target).
	HostFail
	// HostRestore cold-restarts a crashed host: NICs come back, but
	// anything staged in its memory before the crash is gone.
	HostRestore
	// CtrlFail crash-stops a control-plane shard controller. Crash-stop is
	// permanent for controllers: ownership fails over to a successor.
	CtrlFail
	// PartitionStart severs control-plane traffic between the listed
	// shards and the rest of the control plane. Data-plane links are
	// untouched — the partition isolates coordination, not transfers.
	PartitionStart
	// PartitionHeal reconnects the control plane.
	PartitionHeal
	// GraySlow injects a hidden rate sag on a link: capacity drops to
	// Fraction × rate with no watcher notification and no flap — the rail
	// limps, absolute health probes keep passing. Fraction 1 clears it.
	GraySlow
	// GrayJitter inflates a link's latency distribution by Fraction (a
	// factor >= 1) with no notification; Fraction 1 clears it. Credit- and
	// window-limited protocols sag, capacity-limited flows do not.
	GrayJitter
	// SilentLoss drops every Every-th control message on a link — a loss
	// rate deliberately below the consecutive-miss threshold binary death
	// detectors need. Every 0 clears it.
	SilentLoss
	// LimpHost inflates a cluster host's CPU/memory service time: every
	// core runs at Fraction × speed. The host stays alive, heartbeats and
	// all — it just limps. Fraction 1 clears it. Delivered to a Sink.
	LimpHost
	// SpineFail takes a top-stage switch dark: every trunk to it fails at
	// once, so the fabric's ECMP routes around it. Delivered to a Sink.
	SpineFail
	// SpineRestore repairs a dark top-stage switch's trunks.
	SpineRestore
)

// String names the kind for traces and report tables.
func (k Kind) String() string {
	switch k {
	case LinkFail:
		return "fail"
	case LinkRestore:
		return "restore"
	case LinkDegrade:
		return "degrade"
	case Corrupt:
		return "corrupt"
	case HostFail:
		return "host-fail"
	case HostRestore:
		return "host-restore"
	case CtrlFail:
		return "ctrl-fail"
	case PartitionStart:
		return "partition"
	case PartitionHeal:
		return "heal"
	case GraySlow:
		return "gray-slow"
	case GrayJitter:
		return "gray-jitter"
	case SilentLoss:
		return "silent-loss"
	case LimpHost:
		return "limp-host"
	case SpineFail:
		return "spine-fail"
	case SpineRestore:
		return "spine-restore"
	default:
		return "error-burst"
	}
}

// Event is one scheduled fault action.
type Event struct {
	// At is the virtual time the action fires.
	At sim.Time
	// Kind selects the action.
	Kind Kind
	// Link is the target link of a link kind; nil marks a cluster kind,
	// which needs a Sink.
	Link *fabric.Link
	// Fraction is the capacity fraction for LinkDegrade (ignored
	// otherwise); Degrade(1) clears a standing degradation.
	Fraction float64
	// Host is the target host id (HostFail/HostRestore/LimpHost), shard
	// id (CtrlFail) or top-stage switch index (SpineFail/SpineRestore).
	Host int
	// Shards lists the shard ids severed from the rest by PartitionStart.
	Shards []int
	// Every is the SilentLoss cadence: every Every-th control message is
	// dropped (0 clears the injection).
	Every int
}

// target names the event's subject for logs and tables.
func (ev Event) target() string {
	switch ev.Kind {
	case HostFail, HostRestore, LimpHost:
		return fmt.Sprintf("host %d", ev.Host)
	case CtrlFail:
		return fmt.Sprintf("shard %d", ev.Host)
	case PartitionStart:
		return fmt.Sprintf("shards %v", ev.Shards)
	case PartitionHeal:
		return "control plane"
	case SpineFail, SpineRestore:
		return fmt.Sprintf("spine %d", ev.Host)
	}
	return "link " + ev.Link.Cfg.Name
}

// Sink receives cluster-scale fault events from ApplyTo. It is implemented
// by internal/cluster; the indirection keeps this package free of a cluster
// dependency while one Plan carries the whole failure schedule.
type Sink interface {
	// FailHost crash-stops host id.
	FailHost(id int)
	// RestoreHost cold-restarts a crashed host.
	RestoreHost(id int)
	// FailController crash-stops shard controller k (permanent).
	FailController(k int)
	// StartPartition severs control traffic between shards and the rest.
	StartPartition(shards []int)
	// HealPartition reconnects the control plane.
	HealPartition()
	// LimpHost inflates host id's service time: cores run at factor ×
	// speed (factor 1 restores full speed). The host stays alive.
	LimpHost(id int, factor float64)
	// FailSpine takes top-stage switch i dark (every trunk to it fails).
	FailSpine(i int)
	// RestoreSpine repairs top-stage switch i's trunks.
	RestoreSpine(i int)
}

// Plan is an ordered fault schedule.
type Plan struct {
	Events []Event
}

// Empty reports whether the plan schedules nothing.
func (p *Plan) Empty() bool { return p == nil || len(p.Events) == 0 }

// sortEvents orders events by time, breaking ties by insertion order
// (stable), so Apply schedules deterministically.
func (p *Plan) sortEvents() {
	sort.SliceStable(p.Events, func(i, j int) bool { return p.Events[i].At < p.Events[j].At })
}

// Add appends an event.
func (p *Plan) Add(ev Event) { p.Events = append(p.Events, ev) }

// FailWindow schedules a link outage [from, from+outage).
func (p *Plan) FailWindow(l *fabric.Link, from sim.Time, outage sim.Duration) {
	p.Add(Event{At: from, Kind: LinkFail, Link: l})
	p.Add(Event{At: from + sim.Time(outage), Kind: LinkRestore, Link: l})
}

// DegradeWindow schedules partial degradation to fraction×rate over
// [from, from+window), restoring full capacity afterwards.
func (p *Plan) DegradeWindow(l *fabric.Link, from sim.Time, window sim.Duration, fraction float64) {
	p.Add(Event{At: from, Kind: LinkDegrade, Link: l, Fraction: fraction})
	p.Add(Event{At: from + sim.Time(window), Kind: LinkDegrade, Link: l, Fraction: 1})
}

// Burst schedules one RDMA error burst.
func (p *Plan) Burst(l *fabric.Link, at sim.Time) {
	p.Add(Event{At: at, Kind: ErrorBurst, Link: l})
}

// Corrupt schedules one silent bit flip.
func (p *Plan) Corrupt(l *fabric.Link, at sim.Time) {
	p.Add(Event{At: at, Kind: Corrupt, Link: l})
}

// PermanentFail schedules a link failure that is never repaired — a died
// transceiver, a cut fiber. Every window helper in this package restores
// the link before the horizon ends; this one deliberately does not, so
// failover policy (stream migration off the dead rail) can be tested
// against the failure mode where waiting it out never works.
func (p *Plan) PermanentFail(l *fabric.Link, at sim.Time) {
	p.Add(Event{At: at, Kind: LinkFail, Link: l})
}

// HostOutage schedules a crash-stop failure of host id at from, followed by
// a cold restart after down; down == 0 never restarts it.
func (p *Plan) HostOutage(id int, from sim.Time, down sim.Duration) {
	p.Add(Event{At: from, Kind: HostFail, Host: id})
	if down > 0 {
		p.Add(Event{At: from + sim.Time(down), Kind: HostRestore, Host: id})
	}
}

// KillController schedules a permanent crash-stop of shard controller k.
func (p *Plan) KillController(k int, at sim.Time) {
	p.Add(Event{At: at, Kind: CtrlFail, Host: k})
}

// PartitionWindow severs control-plane traffic between the listed shards
// and the rest over [from, from+window), healing afterwards.
func (p *Plan) PartitionWindow(shards []int, from sim.Time, window sim.Duration) {
	p.Add(Event{At: from, Kind: PartitionStart, Shards: shards})
	p.Add(Event{At: from + sim.Time(window), Kind: PartitionHeal})
}

// SlowRail schedules a permanent gray rate sag: from at onwards the link
// delivers only (1-severity) × rate, with no flap and no notification —
// the degraded-but-alive failure mode binary detectors cannot see.
// severity must be in (0, 1).
func (p *Plan) SlowRail(l *fabric.Link, at sim.Time, severity float64) {
	if severity <= 0 || severity >= 1 {
		panic(fmt.Sprintf("faults: SlowRail severity %v outside (0, 1)", severity))
	}
	p.Add(Event{At: at, Kind: GraySlow, Link: l, Fraction: surviving(severity)})
}

// surviving converts a sag severity into the surviving-capacity fraction,
// rounded so 1-0.7 reads 0.3 (not 0.30000000000000004) in echoed schedules
// and trace lines.
func surviving(severity float64) float64 {
	return math.Round((1-severity)*1e9) / 1e9
}

// SlowRailWindow schedules a gray rate sag of the given severity over
// [from, from+window), silently recovering afterwards.
func (p *Plan) SlowRailWindow(l *fabric.Link, from sim.Time, window sim.Duration, severity float64) {
	if severity <= 0 || severity >= 1 {
		panic(fmt.Sprintf("faults: SlowRailWindow severity %v outside (0, 1)", severity))
	}
	p.Add(Event{At: from, Kind: GraySlow, Link: l, Fraction: surviving(severity)})
	p.Add(Event{At: from + sim.Time(window), Kind: GraySlow, Link: l, Fraction: 1})
}

// JitterWindow schedules gray latency inflation by factor (>= 1) over
// [from, from+window), silently recovering afterwards.
func (p *Plan) JitterWindow(l *fabric.Link, from sim.Time, window sim.Duration, factor float64) {
	if factor < 1 {
		panic(fmt.Sprintf("faults: JitterWindow factor %v below 1", factor))
	}
	p.Add(Event{At: from, Kind: GrayJitter, Link: l, Fraction: factor})
	p.Add(Event{At: from + sim.Time(window), Kind: GrayJitter, Link: l, Fraction: 1})
}

// SilentLossWindow schedules a sub-threshold loss regime — every every-th
// control message dropped — over [from, from+window).
func (p *Plan) SilentLossWindow(l *fabric.Link, from sim.Time, window sim.Duration, every int) {
	if every < 2 {
		panic(fmt.Sprintf("faults: SilentLossWindow every %d must be >= 2", every))
	}
	p.Add(Event{At: from, Kind: SilentLoss, Link: l, Every: every})
	p.Add(Event{At: from + sim.Time(window), Kind: SilentLoss, Link: l, Every: 0})
}

// SpineOutage schedules top-stage switch i dark at from; down > 0 repairs
// it after that long, down == 0 leaves it dark for the rest of the run.
func (p *Plan) SpineOutage(i int, from sim.Time, down sim.Duration) {
	p.Add(Event{At: from, Kind: SpineFail, Host: i})
	if down > 0 {
		p.Add(Event{At: from + sim.Time(down), Kind: SpineRestore, Host: i})
	}
}

// LimpWindow schedules CPU/memory service-time inflation on host id over
// [from, from+window): cores run at factor × speed, then recover. factor
// must be in (0, 1).
func (p *Plan) LimpWindow(id int, from sim.Time, window sim.Duration, factor float64) {
	if factor <= 0 || factor >= 1 {
		panic(fmt.Sprintf("faults: LimpWindow factor %v outside (0, 1)", factor))
	}
	p.Add(Event{At: from, Kind: LimpHost, Host: id, Fraction: factor})
	p.Add(Event{At: from + sim.Time(window), Kind: LimpHost, Host: id, Fraction: 1})
}

// Apply schedules every event on the engine. Call before Run; events in
// the past panic (the engine refuses to schedule before now), and so does
// a plan Validate rejects. Plans that contain cluster-scale events
// (host/controller/partition/limp/spine) need ApplyTo.
func (p *Plan) Apply(eng *sim.Engine) { p.ApplyTo(eng, nil) }

// ApplyTo validates the plan and schedules every event on the engine,
// delivering cluster-scale events to sink. It panics with Validate's error
// on a contradictory plan — callers holding outside input validate it
// themselves first, for a clean error — and on a plan with cluster events
// and a nil sink: the schedule names failure domains nobody models.
func (p *Plan) ApplyTo(eng *sim.Engine, sink Sink) {
	if p.Empty() {
		return
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	p.sortEvents()
	for _, ev := range p.Events {
		ev := ev
		if ev.Link == nil && sink == nil {
			panic(fmt.Sprintf("faults: plan schedules %s for %s but no Sink was given; use ApplyTo", ev.Kind, ev.target()))
		}
		eng.At(ev.At, func() {
			switch ev.Kind {
			case LinkDegrade, GraySlow, GrayJitter, LimpHost:
				eng.Tracef("faults", "%s %s (fraction=%g)", ev.Kind, ev.target(), ev.Fraction)
			case SilentLoss:
				eng.Tracef("faults", "%s %s (every=%d)", ev.Kind, ev.target(), ev.Every)
			default:
				eng.Tracef("faults", "%s %s", ev.Kind, ev.target())
			}
			switch ev.Kind {
			case LinkFail:
				ev.Link.Fail()
			case LinkRestore:
				ev.Link.Restore()
			case LinkDegrade:
				ev.Link.Degrade(ev.Fraction)
			case ErrorBurst:
				ev.Link.InjectErrorBurst()
			case Corrupt:
				ev.Link.InjectCorruption()
			case GraySlow:
				ev.Link.GrayDegrade(ev.Fraction)
			case GrayJitter:
				ev.Link.InflateLatency(ev.Fraction)
			case SilentLoss:
				ev.Link.SetSilentLoss(ev.Every)
			case HostFail:
				sink.FailHost(ev.Host)
			case HostRestore:
				sink.RestoreHost(ev.Host)
			case CtrlFail:
				sink.FailController(ev.Host)
			case PartitionStart:
				sink.StartPartition(ev.Shards)
			case PartitionHeal:
				sink.HealPartition()
			case LimpHost:
				sink.LimpHost(ev.Host, ev.Fraction)
			case SpineFail:
				sink.FailSpine(ev.Host)
			case SpineRestore:
				sink.RestoreSpine(ev.Host)
			}
		})
	}
}

// String renders the schedule as a fixed-width table for logs.
func (p *Plan) String() string {
	if p.Empty() {
		return "(no faults scheduled)"
	}
	var b strings.Builder
	for _, ev := range p.Events {
		fmt.Fprintf(&b, "%12.4fs  %-12s  %s", float64(ev.At), ev.Kind, ev.target())
		switch ev.Kind {
		case LinkDegrade, GraySlow, GrayJitter, LimpHost:
			fmt.Fprintf(&b, "  fraction=%g", ev.Fraction)
		case SilentLoss:
			fmt.Fprintf(&b, "  every=%d", ev.Every)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// MarkdownTable renders the schedule as a markdown table for reports.
func (p *Plan) MarkdownTable() string {
	if p.Empty() {
		return "_no faults scheduled_\n"
	}
	var b strings.Builder
	b.WriteString("| t (s) | action | target | fraction |\n|---|---|---|---|\n")
	for _, ev := range p.Events {
		frac := "—"
		switch ev.Kind {
		case LinkDegrade, GraySlow, GrayJitter, LimpHost:
			frac = fmt.Sprintf("%g", ev.Fraction)
		case SilentLoss:
			frac = fmt.Sprintf("every %d", ev.Every)
		}
		fmt.Fprintf(&b, "| %.4f | %s | %s | %s |\n", float64(ev.At), ev.Kind, ev.target(), frac)
	}
	return b.String()
}

// ChaosConfig parameterizes the seeded schedule generator.
type ChaosConfig struct {
	// Seed drives the generator; the same seed over the same links yields
	// the same plan.
	Seed int64
	// Horizon bounds fault start times to [Start, Start+Horizon).
	Horizon sim.Duration
	// Start offsets the first possible fault (grace period for handshakes).
	Start sim.Time
	// MeanBetween is the mean exponential interarrival between faults.
	MeanBetween sim.Duration
	// MeanOutage is the mean duration of a fail or degrade window.
	MeanOutage sim.Duration
	// DegradeFraction is the capacity fraction used for degradation
	// windows (default 0.5 when zero).
	DegradeFraction float64
	// Weights select the fault mix: relative odds of a flap, a degrade
	// window, an error burst, and a silent corruption. All-zero means
	// flaps only.
	FlapWeight, DegradeWeight, BurstWeight, CorruptWeight float64
}

// Chaos draws a fault schedule from cfg over the given links. Each fault
// picks a link uniformly; interarrival times and window lengths are
// exponential. Windows are clamped so every injected outage is repaired
// within the horizon (the plan always ends with every link healthy). A
// drawn fault that would make the plan fail Validate — a flap inside an
// outage, a degrade edge or burst on a dark link — is dropped after its
// draws are taken, so the plan is valid and every later draw is the one
// the seed would give without the check.
func Chaos(cfg ChaosConfig, links ...*fabric.Link) *Plan {
	if len(links) == 0 {
		panic("faults: Chaos needs at least one link")
	}
	if cfg.MeanBetween <= 0 {
		panic("faults: ChaosConfig.MeanBetween must be positive")
	}
	if cfg.Horizon <= 0 {
		panic("faults: ChaosConfig.Horizon must be positive")
	}
	if cfg.MeanOutage <= 0 {
		cfg.MeanOutage = cfg.MeanBetween / 4
	}
	if cfg.DegradeFraction <= 0 || cfg.DegradeFraction > 1 {
		cfg.DegradeFraction = 0.5
	}
	wSum := cfg.FlapWeight + cfg.DegradeWeight + cfg.BurstWeight + cfg.CorruptWeight
	if wSum <= 0 {
		cfg.FlapWeight, wSum = 1, 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	p := &Plan{}
	state := make([]chaosLink, len(links))
	end := cfg.Start + sim.Time(cfg.Horizon)
	at := cfg.Start
	for {
		at += sim.Time(rng.ExpFloat64() * float64(cfg.MeanBetween))
		if at >= end {
			break
		}
		li := rng.Intn(len(links))
		l, st := links[li], &state[li]
		window := sim.Duration(rng.ExpFloat64() * float64(cfg.MeanOutage))
		if minW := sim.Duration(float64(cfg.MeanOutage) / 10); window < minW {
			window = minW
		}
		if at+sim.Time(window) > end {
			window = sim.Duration(end - at)
		}
		until := at + sim.Time(window)
		dark := func(t sim.Time) bool { return t > st.outFrom && t < st.outTo }
		switch pick := rng.Float64() * wSum; {
		case pick < cfg.FlapWeight:
			// An outage starts at or after the last one ends and covers no
			// degrade recovery edge; one at until was added first, so it
			// fires before the restore, on a dark link.
			st.recoveries = slices.DeleteFunc(st.recoveries, func(t sim.Time) bool { return t <= at })
			if at >= st.outTo && !slices.ContainsFunc(st.recoveries, func(t sim.Time) bool { return t <= until }) {
				st.outFrom, st.outTo = at, until
				p.FailWindow(l, at, window)
			}
		case dark(at):
			// A degrade, burst or corruption on a dark link is dropped.
		case pick < cfg.FlapWeight+cfg.DegradeWeight:
			if !dark(until) {
				st.recoveries = append(st.recoveries, until)
				p.DegradeWindow(l, at, window, cfg.DegradeFraction)
			}
		case pick < cfg.FlapWeight+cfg.DegradeWeight+cfg.BurstWeight:
			p.Burst(l, at)
		default:
			p.Corrupt(l, at)
		}
	}
	p.sortEvents()
	return p
}

// chaosLink is what Chaos keeps about one link's accepted faults to apply
// Validate's rules draw by draw. Draw times only grow and accepted outages
// never overlap, so only the latest outage can contain a new event, and
// only a degrade window's recovery edge can lie ahead of the draw time.
type chaosLink struct {
	outFrom, outTo sim.Time   // the latest outage window
	recoveries     []sim.Time // degrade recovery edges, pruned at each flap
}
