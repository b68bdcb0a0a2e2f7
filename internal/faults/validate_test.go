package faults

import (
	"math"
	"strings"
	"testing"

	"e2edt/internal/fabric"
	"e2edt/internal/sim"
)

func wantInvalid(t *testing.T, p *Plan, frag string) {
	t.Helper()
	err := p.Validate()
	if err == nil {
		t.Fatalf("Validate accepted a contradictory plan (wanted error containing %q)", frag)
	}
	if !strings.Contains(err.Error(), frag) {
		t.Fatalf("Validate error %q does not mention %q", err, frag)
	}
}

func wantValid(t *testing.T, p *Plan) {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate rejected a consistent plan: %v", err)
	}
}

func TestValidateAcceptsConsistentPlans(t *testing.T) {
	_, l := testLink("roce")
	p := &Plan{}
	wantValid(t, p) // empty
	p.FailWindow(l, 1, 2)
	p.FailWindow(l, 3, 1) // boundary-touching: restore @3, fail @3
	p.DegradeWindow(l, 5, 1, 0.5)
	p.SlowRailWindow(l, 7, 1, 0.7)
	p.HostOutage(2, 1, 3)
	p.LimpWindow(2, 5, 2, 0.3)
	p.HostOutage(2, 8, 0) // after the limp recovered
	p.PartitionWindow([]int{1}, 1, 2)
	p.PartitionWindow([]int{2}, 4, 2)
	wantValid(t, p)
}

func TestValidateRejectsOverlappingLinkOutages(t *testing.T) {
	_, l := testLink("roce")
	p := &Plan{}
	p.FailWindow(l, 1, 4)
	p.FailWindow(l, 2, 1) // second fail inside the first outage
	wantInvalid(t, p, "inside an outage window")
}

func TestValidateRejectsDegradeOnDarkLink(t *testing.T) {
	_, l := testLink("roce")
	p := &Plan{}
	p.FailWindow(l, 1, 4)
	p.DegradeWindow(l, 2, 1, 0.5)
	wantInvalid(t, p, "the link is dark")

	p2 := &Plan{}
	p2.PermanentFail(l, 1)
	p2.SlowRail(l, 3, 0.7) // gray-sagging a dead fiber
	wantInvalid(t, p2, "the link is dark")
}

// TestValidateRejectsKillInsideLimpWindow is the issue's canonical case:
// crash-stopping a host whose limp window still expects to recover.
func TestValidateRejectsKillInsideLimpWindow(t *testing.T) {
	p := &Plan{}
	p.LimpWindow(3, 1, 10, 0.3)
	p.HostOutage(3, 5, 0)
	wantInvalid(t, p, "inside a limp window")

	// The other host is untouched by the limp — killing it is fine.
	p2 := &Plan{}
	p2.LimpWindow(3, 1, 10, 0.3)
	p2.HostOutage(4, 5, 0)
	wantValid(t, p2)
}

func TestValidateRejectsLimpOnDeadHost(t *testing.T) {
	p := &Plan{}
	p.HostOutage(3, 1, 0)
	p.LimpWindow(3, 5, 2, 0.3)
	wantInvalid(t, p, "the host is down")
}

func TestValidateRejectsOverlappingHostWindows(t *testing.T) {
	p := &Plan{}
	p.HostOutage(1, 1, 5)
	p.HostOutage(1, 3, 1)
	wantInvalid(t, p, "inside an outage window")

	p2 := &Plan{}
	p2.LimpWindow(1, 1, 5, 0.5)
	p2.LimpWindow(1, 3, 1, 0.3)
	wantInvalid(t, p2, "inside a limp window")
}

func TestValidateRejectsOverlappingSpineWindows(t *testing.T) {
	p := &Plan{}
	p.SpineOutage(1, 2, 4)
	p.SpineOutage(0, 3, 1) // another spine: fine
	p.SpineOutage(1, 6, 1) // boundary-touching: fine
	wantValid(t, p)
	p.SpineOutage(1, 4, 0) // permanent kill inside [2, 6)
	wantInvalid(t, p, "spine 1 fails at 4s inside an outage window")
}

func TestValidateRejectsNestedPartitions(t *testing.T) {
	p := &Plan{}
	p.PartitionWindow([]int{1, 2}, 1, 5)
	p.PartitionWindow([]int{3}, 3, 1)
	wantInvalid(t, p, "still open")
}

func TestValidateIgnoresInsertionOrder(t *testing.T) {
	_, l := testLink("roce")
	p := &Plan{}
	// Inserted out of time order; Validate must sort before pairing.
	p.Add(Event{At: 2, Kind: LinkRestore, Link: l})
	p.Add(Event{At: 1, Kind: LinkFail, Link: l})
	wantValid(t, p)
}

// TestGrayInjectionIsSilent pins the defining property of the gray kinds:
// capacity/latency change, but no watcher hears about it.
func TestGrayInjectionIsSilent(t *testing.T) {
	eng, l := testLink("roce")
	events := 0
	l.Watch(func(fabric.Event) { events++ })
	p := &Plan{}
	p.SlowRailWindow(l, 1, 2, 0.7)
	p.JitterWindow(l, 1, 2, 8)
	p.SilentLossWindow(l, 1, 2, 5)
	wantValid(t, p)
	p.Apply(eng)
	nominal := l.RTT()
	eng.At(2, func() {
		if got := l.GraySag(); math.Abs(got-0.3) > 1e-12 {
			t.Errorf("gray sag not applied: %g", got)
		}
		if got := l.LatencyFactor(); got != 8 {
			t.Errorf("latency inflation not applied: %g", got)
		}
		if got := l.RTT(); got != sim.Duration(8*float64(nominal)) {
			t.Errorf("RTT not inflated: %v vs nominal %v", got, nominal)
		}
		if got := l.SilentLossEvery(); got != 5 {
			t.Errorf("silent loss not applied: %d", got)
		}
		if l.Fraction() != 1 {
			t.Errorf("gray sag leaked into Fraction: %g", l.Fraction())
		}
	})
	eng.Run()
	if events != 0 {
		t.Fatalf("gray injection notified %d watcher events; gray failures must be silent", events)
	}
	if l.GraySag() != 1 || l.LatencyFactor() != 1 || l.SilentLossEvery() != 0 {
		t.Fatalf("gray windows did not recover: sag=%g lat=%g loss=%d",
			l.GraySag(), l.LatencyFactor(), l.SilentLossEvery())
	}
}

// TestSilentLossDropsDeterministically: every 3rd Send vanishes, counted,
// and the cadence is a counter — two runs drop the same messages.
func TestSilentLossDropsDeterministically(t *testing.T) {
	_, l := testLink("roce")
	l.SetSilentLoss(3)
	delivered := 0
	for i := 0; i < 9; i++ {
		if l.Send(64, func(sim.Time) {}) {
			delivered++
		}
	}
	if delivered != 6 {
		t.Fatalf("delivered %d of 9 with every=3, want 6", delivered)
	}
	if l.SilentDrops != 3 {
		t.Fatalf("SilentDrops = %d, want 3", l.SilentDrops)
	}
	if l.Drops != 0 {
		t.Fatalf("silent losses leaked into the dark-link Drops counter: %d", l.Drops)
	}
}
