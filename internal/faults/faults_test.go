package faults

import (
	"reflect"
	"strings"
	"testing"

	"e2edt/internal/fabric"
	"e2edt/internal/fluid"
	"e2edt/internal/host"
	"e2edt/internal/numa"
	"e2edt/internal/sim"
	"e2edt/internal/units"
)

func testLink(name string) (*sim.Engine, *fabric.Link) {
	eng := sim.NewEngine()
	s := fluid.NewSim(eng)
	cfg := numa.Config{
		Name: "m", Nodes: 2, CoresPerNode: 8, CoreHz: 2.2e9,
		MemBandwidthPerNode:   25 * units.GBps,
		InterconnectBandwidth: 16 * units.GBps,
		RemoteAccessPenalty:   1.4, CoherencyWritePenalty: 3,
	}
	ca, cb := cfg, cfg
	ca.Name, cb.Name = "A", "B"
	ha := host.New("A", numa.MustNew(s, ca))
	hb := host.New("B", numa.MustNew(s, cb))
	l := fabric.Connect(s, fabric.Config{Name: name, Rate: units.FromGbps(40), RTT: 0.166e-3},
		ha, ha.M.Node(0), hb, hb.M.Node(0))
	return eng, l
}

func TestApplyDrivesLinkTransitions(t *testing.T) {
	eng, l := testLink("roce")
	p := &Plan{}
	p.FailWindow(l, 1, 2)
	p.DegradeWindow(l, 5, 1, 0.25)
	p.Burst(l, 7)
	p.Apply(eng)

	var got []string
	check := func(at sim.Time, want float64) {
		eng.At(at, func() {
			if l.Fraction() != want {
				t.Errorf("t=%v fraction = %v, want %v", at, l.Fraction(), want)
			}
			got = append(got, "checked")
		})
	}
	check(1.5, 0)    // dark during outage
	check(3.5, 1)    // repaired
	check(5.5, 0.25) // degraded
	check(6.5, 1)    // degradation cleared
	eng.Run()
	if len(got) != 4 {
		t.Fatalf("ran %d checks, want 4", len(got))
	}
	if l.Fraction() != 1 {
		t.Fatalf("final fraction = %v, want 1", l.Fraction())
	}
}

func TestChaosDeterministic(t *testing.T) {
	cfg := ChaosConfig{
		Seed: 42, Horizon: 60, MeanBetween: 5, MeanOutage: 1,
		FlapWeight: 1, DegradeWeight: 1, BurstWeight: 1,
	}
	_, l := testLink("roce")
	a := Chaos(cfg, l)
	b := Chaos(cfg, l)
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Fatal("same seed produced different plans")
	}
	cfg.Seed = 43
	c := Chaos(cfg, l)
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatal("different seeds produced identical plans")
	}
	if a.Empty() {
		t.Fatal("expected a non-empty plan over a 60s horizon with 5s mean interarrival")
	}
}

func TestChaosEndsHealthy(t *testing.T) {
	eng, l := testLink("roce")
	p := Chaos(ChaosConfig{
		Seed: 7, Horizon: 120, MeanBetween: 3, MeanOutage: 4,
		FlapWeight: 2, DegradeWeight: 1,
	}, l)
	p.Apply(eng)
	eng.Run()
	if l.Fraction() != 1 {
		t.Fatalf("post-chaos fraction = %v, want 1 (all windows repaired)", l.Fraction())
	}
}

func TestChaosRespectsGracePeriod(t *testing.T) {
	_, l := testLink("roce")
	p := Chaos(ChaosConfig{Seed: 1, Start: 10, Horizon: 50, MeanBetween: 2}, l)
	for _, ev := range p.Events {
		if ev.At < 10 {
			t.Fatalf("event at %v before grace period end 10", ev.At)
		}
		if ev.At > 60 {
			t.Fatalf("event at %v beyond horizon end 60", ev.At)
		}
	}
}

func TestPlanRendering(t *testing.T) {
	_, l := testLink("wan")
	p := &Plan{}
	p.DegradeWindow(l, 2, 1, 0.5)
	s := p.String()
	if !strings.Contains(s, "degrade") || !strings.Contains(s, "wan") {
		t.Fatalf("String() missing fields:\n%s", s)
	}
	md := p.MarkdownTable()
	if !strings.Contains(md, "| 2.0000 | degrade | link wan | 0.5 |") {
		t.Fatalf("markdown table malformed:\n%s", md)
	}
	p.HostOutage(3, 4, 0)
	p.KillController(1, 5)
	p.PartitionWindow([]int{2, 3}, 6, 2)
	md = p.MarkdownTable()
	for _, want := range []string{
		"| 4.0000 | host-fail | host 3 | — |",
		"| 5.0000 | ctrl-fail | shard 1 | — |",
		"| 6.0000 | partition | shards [2 3] | — |",
		"| 8.0000 | heal | control plane | — |",
	} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown table missing %q:\n%s", want, md)
		}
	}
	empty := &Plan{}
	if !strings.Contains(empty.MarkdownTable(), "no faults") {
		t.Fatal("empty plan table should say so")
	}
}

// recordingSink collects cluster-scale fault deliveries in order.
type recordingSink struct{ got []string }

func (r *recordingSink) FailHost(id int)      { r.got = append(r.got, sinkEvent("fail-host", id)) }
func (r *recordingSink) RestoreHost(id int)   { r.got = append(r.got, sinkEvent("restore-host", id)) }
func (r *recordingSink) FailController(k int) { r.got = append(r.got, sinkEvent("fail-ctrl", k)) }
func (r *recordingSink) StartPartition(shards []int) {
	r.got = append(r.got, sinkEvent("partition", len(shards)))
}
func (r *recordingSink) HealPartition() { r.got = append(r.got, "heal") }
func (r *recordingSink) LimpHost(id int, factor float64) {
	r.got = append(r.got, sinkEvent("limp-host", id))
}
func (r *recordingSink) FailSpine(i int)    { r.got = append(r.got, sinkEvent("fail-spine", i)) }
func (r *recordingSink) RestoreSpine(i int) { r.got = append(r.got, sinkEvent("restore-spine", i)) }

func sinkEvent(what string, n int) string { return what + ":" + string(rune('0'+n)) }

// TestApplyToDeliversClusterEvents: host/controller/partition/spine events
// reach the sink at their scheduled times, interleaved correctly with link
// events.
func TestApplyToDeliversClusterEvents(t *testing.T) {
	eng, l := testLink("roce")
	p := &Plan{}
	p.HostOutage(2, 1, 3) // fail @1, restore @4
	p.FailWindow(l, 2, 1) // link fail @2, restore @3
	p.KillController(1, 5)
	p.PartitionWindow([]int{3}, 6, 2) // partition @6, heal @8
	p.SpineOutage(1, 7, 2)            // spine dark @7, repaired @9
	p.SpineOutage(0, 10, 0)           // spine dark @10 for good
	sink := &recordingSink{}
	p.ApplyTo(eng, sink)
	eng.Run()
	want := []string{
		"fail-host:2", "restore-host:2", "fail-ctrl:1", "partition:1",
		"fail-spine:1", "heal", "restore-spine:1", "fail-spine:0",
	}
	if !reflect.DeepEqual(sink.got, want) {
		t.Fatalf("sink deliveries = %v, want %v", sink.got, want)
	}
	if l.Fraction() != 1 {
		t.Fatal("link window not applied alongside cluster events")
	}
}

// TestApplyPanicsOnClusterEventsWithoutSink: a plan naming failure domains
// nobody models is a bug, not a silent no-op.
func TestApplyPanicsOnClusterEventsWithoutSink(t *testing.T) {
	eng, _ := testLink("roce")
	p := &Plan{}
	p.HostOutage(0, 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Apply with cluster events and no sink did not panic")
		}
	}()
	p.Apply(eng)
}

// TestApplyPanicsOnInvalidPlan: ApplyTo enforces Validate, panicking with
// the validator's own error before anything is scheduled.
func TestApplyPanicsOnInvalidPlan(t *testing.T) {
	eng, l := testLink("roce")
	p := &Plan{}
	p.FailWindow(l, 1, 4)
	p.FailWindow(l, 2, 1) // second outage inside the first
	want := p.Validate()
	if want == nil {
		t.Fatal("overlapping outages validated")
	}
	pending := eng.Pending()
	defer func() {
		err, ok := recover().(error)
		if !ok || err.Error() != want.Error() {
			t.Fatalf("ApplyTo panic = %v, want the validator's %q", err, want)
		}
		if got := eng.Pending() - pending; got != 0 {
			t.Fatalf("%d events scheduled before the panic", got)
		}
	}()
	p.Apply(eng)
}

// TestChaosPlansValidate: every plan the generator draws passes Validate,
// across the S2 fault mix on three links, 200 seeds and four fault rates.
// Overlapping draws (a flap inside an outage, a degrade edge on a dark
// link) are dropped rather than silently cut short at run time.
func TestChaosPlansValidate(t *testing.T) {
	_, a := testLink("roce0")
	_, b := testLink("roce1")
	_, c := testLink("roce2")
	for seed := int64(1); seed <= 200; seed++ {
		for _, mtbf := range []sim.Duration{0.5, 1, 2, 4} {
			p := Chaos(ChaosConfig{
				Seed: seed, Horizon: 20, Start: 0.2, MeanBetween: mtbf, MeanOutage: 0.3,
				FlapWeight: 3, DegradeWeight: 1, BurstWeight: 1,
			}, a, b, c)
			if err := p.Validate(); err != nil {
				t.Fatalf("seed %d, MTBF %gs: %v", seed, float64(mtbf), err)
			}
		}
	}
}

// TestPermanentFailNeverRestores: the plan ends with the link still dark,
// unlike every window helper.
func TestPermanentFailNeverRestores(t *testing.T) {
	eng, l := testLink("roce")
	p := &Plan{}
	p.PermanentFail(l, 2)
	p.Apply(eng)
	eng.Run()
	if !l.Failed() || l.Fraction() != 0 {
		t.Fatalf("permanent failure repaired itself: failed=%v fraction=%v",
			l.Failed(), l.Fraction())
	}
	for _, ev := range p.Events {
		if ev.Kind == LinkRestore {
			t.Fatal("PermanentFail scheduled a restore")
		}
	}
}

// TestCorruptDeliversEventWithoutCapacityChange: a corruption event
// reaches watchers but leaves the link running and error-free.
func TestCorruptDeliversEventWithoutCapacityChange(t *testing.T) {
	eng, l := testLink("roce")
	var got []fabric.EventKind
	l.Watch(func(ev fabric.Event) { got = append(got, ev.Kind) })
	p := &Plan{}
	p.Corrupt(l, 1)
	p.Apply(eng)
	eng.Run()
	if !reflect.DeepEqual(got, []fabric.EventKind{fabric.EventCorruption}) {
		t.Fatalf("events = %v, want one corruption", got)
	}
	if l.Fraction() != 1 || l.Failed() {
		t.Fatal("corruption must not touch capacity")
	}
	if !l.Send(64, func(sim.Time) {}) {
		t.Fatal("corruption must not drop control messages")
	}
}

// TestChaosCorruptWeight: with only CorruptWeight set, every drawn fault
// is a corruption, and the schedule stays deterministic per seed.
func TestChaosCorruptWeight(t *testing.T) {
	_, l := testLink("roce")
	p := Chaos(ChaosConfig{Seed: 3, Horizon: 60, MeanBetween: 2, CorruptWeight: 1}, l)
	if len(p.Events) == 0 {
		t.Fatal("no corruption events drawn")
	}
	for _, ev := range p.Events {
		if ev.Kind != Corrupt {
			t.Fatalf("kind = %v, want corrupt", ev.Kind)
		}
	}
	q := Chaos(ChaosConfig{Seed: 3, Horizon: 60, MeanBetween: 2, CorruptWeight: 1}, l)
	if !reflect.DeepEqual(p.Events, q.Events) {
		t.Fatal("same seed produced different corruption schedules")
	}
}
