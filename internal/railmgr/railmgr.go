// Package railmgr is a per-transfer rail health manager: it watches the
// fabric's link transitions and runs a stall-probe heartbeat over every
// rail a transfer spans, classifying each one Healthy, Degraded, Dead or
// Probing. The classification is what multipath policy hangs off:
//
//   - a rail that goes Dead must shed its streams (failover) — in-protocol
//     retransmission on the same path can never drain a dark fiber;
//   - a Degraded rail keeps its streams but should carry a smaller credit
//     window (rebalance) — it still makes progress, just slower;
//   - a restored rail is not trusted on the link-up edge alone: it is
//     re-probed end to end (Probing) and only re-admitted after
//     failbackProbes consecutive echoes, which dampens flapping optics.
//
// The manager is deterministic: watchers fire synchronously inside link
// transitions, probes ride the same virtual clock as everything else, and
// no randomness is drawn, so the same fault schedule yields the same
// transition history bit for bit.
package railmgr

import (
	"e2edt/internal/fabric"
	"e2edt/internal/metrics"
	"e2edt/internal/sim"
)

// State classifies one rail.
type State int

const (
	// Healthy: full capacity, carrying traffic.
	Healthy State = iota
	// Degraded: reduced capacity (Link.Fraction < 1) but alive — streams
	// stay put, credit windows shrink.
	Degraded
	// Dead: dark — control messages drop, flows stall, streams must leave.
	Dead
	// Probing: the link-layer came back up; end-to-end echoes must succeed
	// before the rail is re-admitted.
	Probing
	// Suspect: the rail answers every probe and reports full link-layer
	// capacity, yet its delivered rate is a statistical outlier against
	// its cohort — a gray failure. Suspect rails stay usable (they make
	// progress), but arbiters decay their weight and hedging avoids them
	// as retry targets.
	Suspect
)

// String names the state.
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Dead:
		return "dead"
	case Suspect:
		return "suspect"
	default:
		return "probing"
	}
}

// Usable reports whether a rail in this state may carry streams.
func (s State) Usable() bool { return s == Healthy || s == Degraded || s == Suspect }

// The heartbeat timings, fixed for every manager.
const (
	// probeEvery is the heartbeat period on live rails.
	probeEvery = 100 * sim.Millisecond
	// probeTimeout is how long one echo may take before it counts as
	// missed; it is clamped to at least twice the rail's RTT.
	probeTimeout = 25 * sim.Millisecond
	// probeBytes is the probe message size.
	probeBytes = 64
	// failbackProbes is how many consecutive echoes a restored rail must
	// return before re-admission.
	failbackProbes = 2
	// missedProbes is how many consecutive missed heartbeats declare a live
	// rail Dead even without a link-down event.
	missedProbes = 2
)

// Policy switches the manager and its gray scorer on.
type Policy struct {
	// Enabled switches rail management on (the zero value disables it, so
	// embedding configs keep their legacy fixed-NIC behavior).
	Enabled bool
	// Gray switches on the peer-comparison outlier scorer that catches
	// degraded-but-alive rails the binary probe detector cannot see. Off
	// (the zero value), the manager performs no gray accounting: no extra
	// events, no extra state transitions.
	Gray bool
}

// DefaultPolicy returns the rail policy, enabled.
func DefaultPolicy() Policy { return Policy{Enabled: true} }

// ProbeBudget is the worst-case re-admission latency a restored rail is
// allowed: one heartbeat period to notice it, plus the consecutive
// verification echoes. Watchdogs above the transfer add this to their grace
// window while a failover is in flight.
const ProbeBudget = probeEvery + failbackProbes*probeTimeout

// Transition records one state change for reports and tests.
type Transition struct {
	Rail     int
	From, To State
	At       sim.Time
}

// Manager classifies a set of rails and drives failover/failback policy
// through its OnTransition callback.
type Manager struct {
	// OnTransition, when set, fires synchronously on every state change.
	OnTransition func(rail int, from, to State, now sim.Time)
	// Transitions is the full state-change history.
	Transitions []Transition
	// Deaths and Readmissions count Dead entries and Probing→usable exits.
	Deaths, Readmissions int
	// SuspectEntries, GrayDegradations and GrayClears count the gray
	// scorer's verdicts: rails entering Suspect, Suspect rails escalated to
	// Degraded, and suspects exonerated back to Healthy.
	SuspectEntries, GrayDegradations, GrayClears int

	pol    Policy
	eng    *sim.Engine
	links  []*fabric.Link
	states []State
	missed []int // consecutive missed heartbeats per rail
	echoes []int // consecutive successful failback probes per rail
	seq    []uint64
	deadln []*sim.Event // pending probe-timeout events, one per rail
	ticker *sim.Ticker
	stop   bool
	// unwatch unregisters the per-rail link watchers New installs.
	unwatch []func()

	// Gray scorer state (allocated always, driven only when Gray is on).
	// The scorer sees per-stream-normalized delivered rate per rail.
	gray     *metrics.PeerScorer
	grayDeg  []bool   // rail was Degraded by the scorer, not the link
	firstSus sim.Time // earliest Suspect entry, -1 if never
}

// New builds a manager over the given rails and starts its heartbeat.
// Initial states are read from each link's current Fraction.
func New(eng *sim.Engine, links []*fabric.Link, pol Policy) *Manager {
	if len(links) == 0 {
		panic("railmgr: no rails")
	}
	m := &Manager{
		pol: pol, eng: eng, links: links,
		states:   make([]State, len(links)),
		missed:   make([]int, len(links)),
		echoes:   make([]int, len(links)),
		seq:      make([]uint64, len(links)),
		deadln:   make([]*sim.Event, len(links)),
		gray:     newGrayScorer(len(links)),
		grayDeg:  make([]bool, len(links)),
		firstSus: -1,
		unwatch:  make([]func(), len(links)),
	}
	for i, l := range links {
		switch f := l.Fraction(); {
		case f == 0:
			m.states[i] = Dead
		case f < 1:
			m.states[i] = Degraded
		default:
			m.states[i] = Healthy
		}
		m.unwatch[i] = l.Watch(func(ev fabric.Event) { m.onLinkEvent(i, ev) })
	}
	m.ticker = eng.NewTicker(probeEvery, m.tick)
	return m
}

// State returns rail i's classification.
func (m *Manager) State(i int) State { return m.states[i] }

// Usable reports whether rail i may carry streams.
func (m *Manager) Usable(i int) bool { return m.states[i].Usable() }

// UsableRails returns the indices of usable rails, ascending.
func (m *Manager) UsableRails() []int {
	var out []int
	for i, s := range m.states {
		if s.Usable() {
			out = append(out, i)
		}
	}
	return out
}

// Stop halts the heartbeat, cancels pending probe deadlines and unregisters
// the link watchers, so the links no longer keep the manager, and through
// OnTransition its owner, reachable.
func (m *Manager) Stop() {
	if m.stop {
		return
	}
	m.stop = true
	m.ticker.Stop()
	for _, unwatch := range m.unwatch {
		unwatch()
	}
	m.unwatch = nil
	for i := range m.deadln {
		if m.deadln[i] != nil {
			m.eng.Cancel(m.deadln[i])
			m.deadln[i] = nil
		}
	}
}

// onLinkEvent reacts to link-layer transitions.
func (m *Manager) onLinkEvent(i int, ev fabric.Event) {
	if m.stop {
		return
	}
	switch ev.Kind {
	case fabric.EventDown:
		m.transition(i, Dead)
	case fabric.EventUp:
		if m.states[i] == Dead {
			m.transition(i, Probing)
			m.echoes[i] = 0
			m.probe(i) // start re-admission immediately, not at the next tick
		}
	case fabric.EventDegraded:
		switch m.states[i] {
		case Healthy:
			if ev.Fraction < 1 {
				m.transition(i, Degraded)
			}
		case Degraded:
			if ev.Fraction >= 1 && !m.grayDeg[i] {
				m.transition(i, Healthy)
			}
		case Suspect:
			// A visible link-layer degrade outranks a statistical verdict.
			if ev.Fraction < 1 {
				m.grayDeg[i] = false
				m.transition(i, Degraded)
			}
		}
		// Dead/Probing: the standing fraction is picked up on re-admission.
	}
}

// tick is the heartbeat: probe every rail that is not Dead. Dead rails
// wait for the link-up event; probing them would only count drops.
func (m *Manager) tick(sim.Time) {
	for i := range m.links {
		if m.states[i] != Dead && m.deadln[i] == nil {
			m.probe(i)
		}
	}
	if m.pol.Gray {
		m.gray.Score(m.grayStanding, m.grayVerdict)
	}
}

// probe sends one end-to-end echo on rail i and arms its deadline.
func (m *Manager) probe(i int) {
	if m.stop {
		return
	}
	m.seq[i]++
	seq := m.seq[i]
	l := m.links[i]
	timeout := probeTimeout
	if min := 2 * l.RTT(); timeout < min {
		timeout = min
	}
	m.deadln[i] = m.eng.Schedule(timeout, func() {
		m.deadln[i] = nil
		m.probeMissed(i, seq)
	})
	l.Send(probeBytes, func(sim.Time) {
		l.Send(probeBytes, func(sim.Time) { m.probeEcho(i, seq) })
	})
	// A synchronous drop needs no special casing: the armed deadline
	// expires and counts the miss.
}

// probeEcho handles a returned probe.
func (m *Manager) probeEcho(i int, seq uint64) {
	if m.stop || seq != m.seq[i] {
		return // stale echo from before a state change
	}
	if m.deadln[i] != nil {
		m.eng.Cancel(m.deadln[i])
		m.deadln[i] = nil
	}
	m.missed[i] = 0
	if m.states[i] != Probing {
		return
	}
	m.echoes[i]++
	if m.echoes[i] < failbackProbes {
		m.probe(i) // chain the next verification echo immediately
		return
	}
	// Re-admit at the rail's standing capacity fraction.
	if m.links[i].Fraction() < 1 {
		m.transition(i, Degraded)
	} else {
		m.transition(i, Healthy)
	}
}

// probeMissed handles an expired probe deadline.
func (m *Manager) probeMissed(i int, seq uint64) {
	if m.stop || seq != m.seq[i] {
		return
	}
	switch m.states[i] {
	case Healthy, Degraded, Suspect:
		// A Suspect rail is still subject to the binary detector: real
		// missed heartbeats kill it like any other live rail.
		m.missed[i]++
		if m.missed[i] >= missedProbes {
			m.transition(i, Dead)
		}
	case Probing:
		m.echoes[i] = 0 // verification restarts at the next heartbeat
	}
}

// transition applies a state change and notifies.
func (m *Manager) transition(i int, to State) {
	from := m.states[i]
	if from == to {
		return
	}
	m.states[i] = to
	m.missed[i] = 0
	if to != Probing {
		m.echoes[i] = 0
	}
	if m.deadln[i] != nil {
		m.eng.Cancel(m.deadln[i])
		m.deadln[i] = nil
	}
	m.gray.ResetCounters(i)
	switch {
	case to == Dead:
		m.Deaths++
		m.grayDeg[i] = false
	case from == Probing && to.Usable():
		m.Readmissions++
		// A re-admitted rail starts with a clean statistical slate: its
		// pre-outage rate history says nothing about the repaired path.
		m.gray.Reset(i)
		m.grayDeg[i] = false
	case to == Suspect:
		m.SuspectEntries++
		if m.firstSus < 0 {
			m.firstSus = m.eng.Now()
		}
	}
	now := m.eng.Now()
	m.Transitions = append(m.Transitions, Transition{Rail: i, From: from, To: to, At: now})
	m.eng.Tracef("railmgr", "rail %d (%s) %s -> %s", i, m.links[i].Cfg.Name, from, to)
	if m.OnTransition != nil {
		m.OnTransition(i, from, to, now)
	}
}
