package railmgr

import (
	"testing"

	"e2edt/internal/sim"
	"e2edt/internal/testbed"
)

// newMgr builds a manager over the §2.3 three-rail testbed.
func newMgr(t *testing.T, pol Policy) (*testbed.MotivatingPair, *Manager) {
	t.Helper()
	tb := testbed.NewMotivatingPair()
	m := New(tb.Eng, tb.Links, pol)
	t.Cleanup(m.Stop)
	return tb, m
}

// run advances virtual time; the heartbeat keeps the queue alive, so a
// bounded RunUntil is the only safe way to step.
func run(tb *testbed.MotivatingPair, d sim.Duration) {
	tb.Eng.RunUntil(tb.Eng.Now() + sim.Time(d))
}

// TestStateMachine walks the rail state machine through every transition
// the manager classifies, including flapping mid-probe.
func TestStateMachine(t *testing.T) {
	type step struct {
		name string
		act  func(tb *testbed.MotivatingPair)
		wait sim.Duration
		want [3]State
	}
	steps := []step{
		{
			name: "initial",
			act:  func(*testbed.MotivatingPair) {},
			want: [3]State{Healthy, Healthy, Healthy},
		},
		{
			name: "degrade rail1",
			act:  func(tb *testbed.MotivatingPair) { tb.Links[1].Degrade(0.5) },
			want: [3]State{Healthy, Degraded, Healthy},
		},
		{
			name: "kill rail1 while degraded",
			act:  func(tb *testbed.MotivatingPair) { tb.Links[1].Fail() },
			want: [3]State{Healthy, Dead, Healthy},
		},
		{
			name: "restore enters probing, not service",
			act:  func(tb *testbed.MotivatingPair) { tb.Links[1].Restore() },
			want: [3]State{Healthy, Probing, Healthy},
		},
		{
			name: "re-admitted at standing degraded fraction",
			act:  func(*testbed.MotivatingPair) {},
			wait: 50 * sim.Millisecond, // two chained echo RTTs
			want: [3]State{Healthy, Degraded, Healthy},
		},
		{
			name: "degradation cleared",
			act:  func(tb *testbed.MotivatingPair) { tb.Links[1].Degrade(1) },
			want: [3]State{Healthy, Healthy, Healthy},
		},
		{
			name: "kill rail0",
			act:  func(tb *testbed.MotivatingPair) { tb.Links[0].Fail() },
			want: [3]State{Dead, Healthy, Healthy},
		},
		{
			name: "flap: fail again mid-probe",
			act: func(tb *testbed.MotivatingPair) {
				tb.Links[0].Restore()
				// Still Probing — the first echo has not returned yet.
				tb.Links[0].Fail()
			},
			want: [3]State{Dead, Healthy, Healthy},
		},
		{
			name: "second restore completes failback",
			act:  func(tb *testbed.MotivatingPair) { tb.Links[0].Restore() },
			wait: 50 * sim.Millisecond,
			want: [3]State{Healthy, Healthy, Healthy},
		},
	}

	tb, m := newMgr(t, DefaultPolicy())
	for _, st := range steps {
		st.act(tb)
		if st.wait > 0 {
			run(tb, st.wait)
		}
		for i := range st.want {
			if got := m.State(i); got != st.want[i] {
				t.Fatalf("%s: rail %d = %v, want %v", st.name, i, got, st.want[i])
			}
		}
	}
	if m.Deaths != 3 {
		t.Fatalf("Deaths = %d, want 3", m.Deaths)
	}
	if m.Readmissions != 2 {
		t.Fatalf("Readmissions = %d, want 2", m.Readmissions)
	}
	// The flap must appear in the history as Dead -> Probing -> Dead.
	var rail0 []State
	for _, tr := range m.Transitions {
		if tr.Rail == 0 {
			rail0 = append(rail0, tr.To)
		}
	}
	want := []State{Dead, Probing, Dead, Probing, Healthy}
	if len(rail0) != len(want) {
		t.Fatalf("rail0 history %v, want %v", rail0, want)
	}
	for i := range want {
		if rail0[i] != want[i] {
			t.Fatalf("rail0 history %v, want %v", rail0, want)
		}
	}
}

// TestUsableRails checks the policy-facing queries.
func TestUsableRails(t *testing.T) {
	tb, m := newMgr(t, DefaultPolicy())
	if got := m.UsableRails(); len(got) != 3 {
		t.Fatalf("usable = %v, want all three", got)
	}
	tb.Links[1].Fail()
	got := m.UsableRails()
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("usable = %v, want [0 2]", got)
	}
	if m.Usable(1) || !m.Usable(0) {
		t.Fatal("Usable() disagrees with UsableRails()")
	}
	tb.Links[2].Degrade(0.25)
	if !m.Usable(2) {
		t.Fatal("degraded rail must stay usable")
	}
}

// TestFailbackRequiresConsecutiveEchoes: a probe interrupted by a missed
// deadline restarts the verification count, so a half-alive rail is not
// re-admitted on a single lucky echo.
func TestFailbackRequiresConsecutiveEchoes(t *testing.T) {
	tb, m := newMgr(t, DefaultPolicy())
	l := tb.Links[0]
	l.Fail()
	l.Restore()
	if m.State(0) != Probing {
		t.Fatalf("state = %v, want probing", m.State(0))
	}
	// One echo round trip is ~RTT; after the first echo the rail must
	// still be probing (needs failbackProbes = 2).
	run(tb, l.RTT()+sim.Microsecond)
	if m.State(0) != Probing {
		t.Fatalf("after one echo: %v, want still probing", m.State(0))
	}
	run(tb, l.RTT())
	if m.State(0) != Healthy {
		t.Fatalf("after two echoes: %v, want healthy", m.State(0))
	}
	if m.Readmissions != 1 {
		t.Fatalf("Readmissions = %d, want 1", m.Readmissions)
	}
}

// TestHeartbeatDeclaresDeath drives the belt-and-braces path directly: a
// rail whose probes go unanswered (without a link-down edge) is declared
// Dead after missedProbes (2) consecutive misses.
func TestHeartbeatDeclaresDeath(t *testing.T) {
	tb, m := newMgr(t, DefaultPolicy())
	m.probeMissed(0, m.seq[0])
	if m.State(0) != Healthy {
		t.Fatalf("one miss flipped the rail: %v", m.State(0))
	}
	m.probeMissed(0, m.seq[0])
	if m.State(0) != Dead {
		t.Fatalf("two misses: %v, want dead", m.State(0))
	}
	// A stale echo from before the death must not resurrect anything.
	m.probeEcho(0, m.seq[0]-1)
	if m.State(0) != Dead {
		t.Fatalf("stale echo resurrected rail: %v", m.State(0))
	}
	_ = tb
}

// TestDeterministicHistory: the same fault sequence replays to an
// identical transition history.
func TestDeterministicHistory(t *testing.T) {
	histories := make([][]Transition, 2)
	for run := range histories {
		tb, m := newMgr(t, DefaultPolicy())
		tb.Eng.At(sim.Time(100*sim.Millisecond), tb.Links[0].Fail)
		tb.Eng.At(sim.Time(300*sim.Millisecond), tb.Links[0].Restore)
		tb.Eng.At(sim.Time(400*sim.Millisecond), func() { tb.Links[2].Degrade(0.5) })
		tb.Eng.RunUntil(sim.Time(600 * sim.Millisecond))
		histories[run] = append([]Transition(nil), m.Transitions...)
	}
	if len(histories[0]) == 0 {
		t.Fatal("no transitions recorded")
	}
	if len(histories[0]) != len(histories[1]) {
		t.Fatalf("history lengths differ: %d vs %d", len(histories[0]), len(histories[1]))
	}
	for i := range histories[0] {
		if histories[0][i] != histories[1][i] {
			t.Fatalf("histories diverge at %d: %+v vs %+v", i, histories[0][i], histories[1][i])
		}
	}
}

// TestStoppedManagerHearsNoLinkEvents: Stop unregisters the manager's link
// watchers, so the links stop delivering to it (and stop keeping it, and
// through OnTransition its owner, reachable); a later failure records no
// transition.
func TestStoppedManagerHearsNoLinkEvents(t *testing.T) {
	tb := testbed.NewMotivatingPair()
	before := make([]int, len(tb.Links))
	for i, l := range tb.Links {
		before[i] = l.Watchers()
	}
	m := New(tb.Eng, tb.Links, Policy{Enabled: true})
	for i, l := range tb.Links {
		if l.Watchers() != before[i]+1 {
			t.Fatalf("rail %d: %d watchers with a manager, want %d", i, l.Watchers(), before[i]+1)
		}
	}
	m.OnTransition = func(rail int, from, to State, now sim.Time) {
		t.Fatalf("stopped manager saw rail %d go %v → %v", rail, from, to)
	}
	m.Stop()
	for i, l := range tb.Links {
		if l.Watchers() != before[i] {
			t.Fatalf("rail %d: %d watchers after Stop, want %d", i, l.Watchers(), before[i])
		}
	}
	tb.Links[0].Fail()
	tb.Links[1].Degrade(0.5)
	run(tb, sim.Second)
	if len(m.Transitions) != 0 || m.State(0) != Healthy {
		t.Fatalf("transitions after Stop: %v", m.Transitions)
	}
}
