package railmgr

import (
	"reflect"
	"testing"

	"e2edt/internal/sim"
	"e2edt/internal/testbed"
)

// grayMgr builds a manager with the scorer on, plus a 25ms feed ticker
// that reports each rail's per-stream rate as its current silent sag —
// the unit-test stand-in for the transfer's progress watchdog.
func grayMgr(t *testing.T) (*testbed.MotivatingPair, *Manager) {
	t.Helper()
	tb, m := newMgr(t, Policy{Gray: true})
	tb.Eng.NewTicker(25*sim.Millisecond, func(sim.Time) {
		for i, l := range tb.Links {
			m.ObserveRate(i, l.GraySag())
		}
	})
	return tb, m
}

// TestGraySuspectOnSilentSag: a silent 70% capacity sag — invisible to
// the link watcher and every probe — is caught by peer comparison, and
// REGRESSION: the binary death detector never kills the suspect rail,
// which keeps carrying traffic the whole time.
func TestGraySuspectOnSilentSag(t *testing.T) {
	tb, m := grayMgr(t)
	run(tb, 500*sim.Millisecond) // settle a healthy baseline
	if got := m.SuspectRails(); got != nil {
		t.Fatalf("healthy cohort produced suspects: %v", got)
	}

	sagAt := tb.Eng.Now()
	tb.Links[1].GrayDegrade(0.5)
	run(tb, 1*sim.Second)

	if m.State(1) != Suspect {
		t.Fatalf("rail 1 = %v after sustained silent sag, want suspect", m.State(1))
	}
	if !m.Usable(1) {
		t.Fatal("suspect rail must stay usable — it is degraded, not dead")
	}
	if m.Deaths != 0 {
		t.Fatalf("binary detector killed a gray rail: Deaths = %d", m.Deaths)
	}
	if got := m.SuspectRails(); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("SuspectRails = %v, want [1]", got)
	}
	if m.State(0) != Healthy || m.State(2) != Healthy {
		t.Fatalf("healthy peers misjudged: %v %v", m.State(0), m.State(2))
	}
	at, ok := m.FirstSuspectAt()
	if !ok {
		t.Fatal("FirstSuspectAt unset after a suspect entry")
	}
	if lat := at - sagAt; lat <= 0 || lat > sim.Time(500*sim.Millisecond) {
		t.Fatalf("detection latency %v outside (0, 500ms]", lat)
	}
	if w := m.GrayWeight(1); w <= 0 || w >= 1 {
		t.Fatalf("suspect rail GrayWeight = %g, want in (0, 1)", w)
	}
	if w := m.GrayWeight(0); w != 1 {
		t.Fatalf("healthy rail GrayWeight = %g, want 1", w)
	}

	// Recovery: sag lifts, the suspect is exonerated after ClearAfter
	// consecutive clean scores.
	tb.Links[1].GrayDegrade(1)
	run(tb, 1*sim.Second)
	if m.State(1) != Healthy {
		t.Fatalf("rail 1 = %v after recovery, want healthy", m.State(1))
	}
	if m.GrayClears == 0 {
		t.Fatal("recovery not counted as a gray clear")
	}
	if w := m.GrayWeight(1); w != 1 {
		t.Fatalf("exonerated rail GrayWeight = %g, want 1", w)
	}
}

// TestGrayEscalatesToDegraded: a collapse below DegradeBelow walks the
// hysteresis ladder Healthy→Suspect→Degraded, and the scorer's own
// degradation is scorer-revocable on recovery.
func TestGrayEscalatesToDegraded(t *testing.T) {
	tb, m := grayMgr(t)
	run(tb, 500*sim.Millisecond)
	tb.Links[1].GrayDegrade(0.2)
	run(tb, 2*sim.Second)

	if m.State(1) != Degraded {
		t.Fatalf("rail 1 = %v after deep sag, want degraded", m.State(1))
	}
	if m.GrayDegradations == 0 {
		t.Fatal("escalation not counted")
	}
	if !m.Suspect(1) {
		t.Fatal("scorer-degraded rail must still report Suspect(i)")
	}
	if !m.Usable(1) {
		t.Fatal("gray-degraded rail must stay usable")
	}
	// The ladder was walked in order: Suspect strictly before Degraded.
	sawSuspect := false
	for _, tr := range m.Transitions {
		if tr.Rail != 1 {
			continue
		}
		if tr.To == Suspect {
			sawSuspect = true
		}
		if tr.To == Degraded && !sawSuspect {
			t.Fatal("rail degraded without passing through suspect")
		}
	}
	if !sawSuspect {
		t.Fatal("no suspect transition recorded")
	}

	tb.Links[1].GrayDegrade(1)
	run(tb, 2*sim.Second)
	if m.State(1) != Healthy {
		t.Fatalf("rail 1 = %v after recovery, want healthy", m.State(1))
	}
	if m.Suspect(1) {
		t.Fatal("exonerated rail still reports suspect")
	}
}

// TestGrayVisibleDegradeOutranksVerdict: a link-layer degrade event on a
// Suspect rail converts the statistical verdict into the stronger
// link-backed Degraded state, which then clears on the link's own edge.
func TestGrayVisibleDegradeOutranksVerdict(t *testing.T) {
	tb, m := grayMgr(t)
	run(tb, 500*sim.Millisecond)
	tb.Links[1].GrayDegrade(0.5)
	run(tb, 1*sim.Second)
	if m.State(1) != Suspect {
		t.Fatalf("precondition: rail 1 = %v, want suspect", m.State(1))
	}
	tb.Links[1].Degrade(0.5)
	if m.State(1) != Degraded {
		t.Fatalf("visible degrade on suspect rail: %v, want degraded", m.State(1))
	}
	if m.Suspect(1) {
		t.Fatal("link-backed degradation must not be attributed to the scorer")
	}
	tb.Links[1].GrayDegrade(1)
	tb.Links[1].Degrade(1)
	run(tb, 100*sim.Millisecond)
	if m.State(1) != Healthy {
		t.Fatalf("rail 1 = %v after link clears, want healthy", m.State(1))
	}
}

// TestGraySuspectStillDiesOnRealLoss: the regression's other direction —
// Suspect softens nothing about true failure. A dark fiber under a
// suspect rail is still declared Dead by missed heartbeats.
func TestGraySuspectStillDiesOnRealLoss(t *testing.T) {
	tb, m := grayMgr(t)
	run(tb, 500*sim.Millisecond)
	tb.Links[1].GrayDegrade(0.5)
	run(tb, 1*sim.Second)
	if m.State(1) != Suspect {
		t.Fatalf("precondition: rail 1 = %v, want suspect", m.State(1))
	}
	tb.Links[1].Fail()
	if m.State(1) != Dead {
		t.Fatalf("failed suspect rail = %v, want dead", m.State(1))
	}
	if m.Deaths != 1 {
		t.Fatalf("Deaths = %d, want 1", m.Deaths)
	}
	// Readmission wipes the rail's statistical history.
	tb.Links[1].GrayDegrade(1)
	tb.Links[1].Restore()
	run(tb, 1*sim.Second)
	if m.State(1) != Healthy {
		t.Fatalf("rail 1 = %v after repair, want healthy", m.State(1))
	}
	if m.RateRatio(1) != 1 {
		t.Fatalf("readmitted rail kept stale ratio %g", m.RateRatio(1))
	}
}

// TestGrayDisabledIsInert: without Gray the manager performs no
// gray accounting at all — a silently sagging rail is (correctly, per the
// legacy contract) never suspected, and the transition history matches a
// fault-free run exactly.
func TestGrayDisabledIsInert(t *testing.T) {
	tb, m := newMgr(t, Policy{})
	tb.Eng.NewTicker(25*sim.Millisecond, func(sim.Time) {
		for i, l := range tb.Links {
			m.ObserveRate(i, l.GraySag())
		}
	})
	tb.Links[1].GrayDegrade(0.5)
	run(tb, 3*sim.Second)
	if len(m.Transitions) != 0 {
		t.Fatalf("gray-off manager recorded transitions: %v", m.Transitions)
	}
	if m.SuspectEntries != 0 || m.GrayDegradations != 0 || m.GrayClears != 0 {
		t.Fatal("gray counters moved while disabled")
	}
	if w := m.GrayWeight(1); w != 1 {
		t.Fatalf("gray-off GrayWeight = %g, want 1", w)
	}
}
