package rftp

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"e2edt/internal/pipe"
	"e2edt/internal/sim"
	"e2edt/internal/testbed"
	"e2edt/internal/trace"
	"e2edt/internal/units"
)

// grayParams layers gray detection and/or hedging over railParams. The
// scorer runs on the 20ms probe tick; loss detection stays at 50ms.
func grayParams(detect, hedge bool) Params {
	p := railParams()
	if detect {
		p.Rails.Gray = true
	}
	if hedge {
		p.Hedge = true
	}
	return p
}

// creditCfg is a credit-limited configuration: per-stream rate is bounded
// by the window (2×128KB/RTT ≈ 1.6 GB/s), well under a rail's share, so
// healthy rails have headroom to absorb hedges and migrated streams —
// the regime where tail tolerance can actually win.
func creditCfg() Config {
	return Config{Streams: 6, BlockSize: 128 * units.KB, CreditsPerStream: 2}
}

// TestHedgeRequiresRails: hedging and the gray scorer both live on the
// rail manager, so asking for either without Rails fails Start instead of
// running silently inert.
func TestHedgeRequiresRails(t *testing.T) {
	for _, c := range []struct {
		name string
		set  func(*Params)
	}{
		{"hedge", func(p *Params) { p.Hedge = true }},
		{"gray", func(p *Params) { p.Rails.Gray = true }},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := testbed.NewMotivatingPair()
			prm := recoveryParams()
			c.set(&prm) // but Rails disabled
			_, err := Start(p.Links, p.A, DefaultConfig(), prm, pipe.Zero{}, pipe.Null{}, math.Inf(1), nil)
			if err == nil {
				t.Fatal("Start accepted the plane without Rails")
			}
		})
	}
}

// TestGraySagDetectedAndHedged is the package's tentpole scenario: one
// rail silently sags to 30% capacity — no link event, probes keep
// answering — and the detection+hedging plane suspects it, hedges the
// lagging windows onto trusted rails, migrates the victims, and still
// delivers every byte exactly once.
func TestGraySagDetectedAndHedged(t *testing.T) {
	p := testbed.NewMotivatingPair()
	size := 4 * float64(units.GB)
	var doneAt sim.Time
	tr, err := Start(p.Links, p.A, creditCfg(), grayParams(true, true),
		pipe.Zero{}, pipe.Null{}, size, func(now sim.Time) { doneAt = now })
	if err != nil {
		t.Fatal(err)
	}
	sagAt := sim.Time(0.15)
	p.Eng.At(sagAt, func() { p.Links[1].GrayDegrade(0.3) })
	p.Eng.Run()
	if doneAt <= 0 {
		t.Fatal("transfer never completed under a silent sag")
	}
	if got := tr.Transferred(); !near(got, size, 1e-6) {
		t.Fatalf("delivered %g, want exactly %g", got, size)
	}
	mgr := tr.Rails()
	if mgr.SuspectEntries == 0 {
		t.Fatal("silent sag never suspected")
	}
	if mgr.Deaths != 0 {
		t.Fatalf("gray rail killed by the binary detector: Deaths = %d", mgr.Deaths)
	}
	at, ok := mgr.FirstSuspectAt()
	if !ok || at <= sagAt {
		t.Fatalf("FirstSuspectAt = (%v, %v), want after sag at %v", at, ok, sagAt)
	}
	if lat := at - sagAt; lat > sim.Time(500*sim.Millisecond) {
		t.Fatalf("detection latency %v exceeds 500ms", lat)
	}
	if tr.Hedges == 0 {
		t.Fatal("no hedges launched against a sagging rail")
	}
	if tr.HedgeWins+tr.HedgeLosses != tr.Hedges {
		t.Fatalf("hedge accounting leak: %d wins + %d losses != %d launched",
			tr.HedgeWins, tr.HedgeLosses, tr.Hedges)
	}
	if tr.HedgeWins == 0 {
		t.Fatal("no hedge outran a 70% sag")
	}
	if ha, ok := tr.FirstHedgeAt(); !ok || ha <= sagAt {
		t.Fatalf("FirstHedgeAt = (%v, %v), want after sag", ha, ok)
	}
	for _, l := range tr.HedgeLatencies() {
		if l <= 0 || l > sim.Duration(100*sim.Millisecond) {
			t.Fatalf("hedge win latency %v outside (0, 100ms]", l)
		}
	}
	if tr.ActiveHedges() != 0 {
		t.Fatalf("hedges still racing after completion: %d", tr.ActiveHedges())
	}
}

// TestGrayWeightDecaysCredits: once a rail is suspected, the fair-share
// credit pool shifts away from it even though Fraction() still reads 1.
func TestGrayWeightDecaysCredits(t *testing.T) {
	p := testbed.NewMotivatingPair()
	tr, err := Start(p.Links, p.A, creditCfg(), grayParams(true, false),
		pipe.Zero{}, pipe.Null{}, math.Inf(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Eng.RunUntil(0.1)
	var base float64
	for _, s := range tr.streams {
		if s.rail == 1 {
			base = s.transfer.Flow.Demand()
			break
		}
	}
	// Deep sag: in the credit-limited regime the rail only pinches stream
	// rate once its capacity falls below the summed window demand.
	p.Links[1].GrayDegrade(0.3)
	p.Eng.RunUntil(1.0)
	if !tr.Rails().Suspect(1) {
		t.Fatal("sagging rail not suspected")
	}
	for _, s := range tr.streams {
		if s.rail == 1 && !(s.transfer.Flow.Demand() < base) {
			t.Fatalf("suspect rail demand did not shrink: %g -> %g", base, s.transfer.Flow.Demand())
		}
	}
	onSuspect := 0
	for _, s := range tr.streams {
		if !s.done && tr.Rails().Suspect(s.rail) {
			onSuspect++
		}
	}
	if onSuspect == 0 {
		t.Fatal("no live stream on the suspect rail")
	}
	tr.Stop()
}

// TestGrayHedgeDeterminism sweeps 20 seeds of a gray rate sag (rail,
// onset, severity, window) with detection and hedging on, and checks for
// each: the transfer completes, delivers exactly once with hedges racing,
// stays monotonic, and replays bit-identically.
func TestGrayHedgeDeterminism(t *testing.T) {
	size := 3 * float64(units.GB)
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rail := rng.Intn(3)
		sagAt := sim.Time(0.05 + rng.Float64()*0.2)
		severity := 0.4 + rng.Float64()*0.45 // capacity sag in [0.4, 0.85]
		window := sim.Time(0.2 + rng.Float64()*0.3)

		run := func(sample bool) (*trace.Recorder, float64, sim.Time) {
			p := testbed.NewMotivatingPair()
			rec := &trace.Recorder{}
			p.Eng.SetTracer(rec)
			var doneAt sim.Time
			tr, err := Start(p.Links, p.A, creditCfg(), grayParams(true, true),
				pipe.Zero{}, pipe.Null{}, size, func(now sim.Time) { doneAt = now })
			if err != nil {
				t.Fatal(err)
			}
			l := p.Links[rail]
			p.Eng.At(sagAt, func() { l.GrayDegrade(1 - severity) })
			p.Eng.At(sagAt+window, func() { l.GrayDegrade(1) })
			if sample {
				last := -1.0
				tk := p.Eng.NewTicker(10*sim.Millisecond, func(sim.Time) {
					got := tr.Transferred()
					if got < last {
						t.Fatalf("seed %d: Transferred went backwards: %g after %g", seed, got, last)
					}
					if got > size*(1+1e-9) {
						t.Fatalf("seed %d: Transferred %g exceeds size %g (duplicate delivery)", seed, got, size)
					}
					last = got
				})
				p.Eng.At(10, tk.Stop)
			}
			p.Eng.Run()
			return rec, tr.Transferred(), doneAt
		}

		run(true)
		rec1, got1, done1 := run(false)
		rec2, got2, done2 := run(false)
		if done1 <= 0 {
			t.Fatalf("seed %d: transfer never completed (rail %d sev %.2f)",
				seed, rail, severity)
		}
		if !near(got1, size, 1e-6) {
			t.Fatalf("seed %d: delivered %g, want exactly %g", seed, got1, size)
		}
		if got1 != got2 || done1 != done2 {
			t.Fatalf("seed %d: replay diverged: (%g,%v) vs (%g,%v)", seed, got1, done1, got2, done2)
		}
		if len(rec1.Events) == 0 {
			t.Fatalf("seed %d: empty trace", seed)
		}
		if !reflect.DeepEqual(rec1.Events, rec2.Events) {
			for i := range rec1.Events {
				if i >= len(rec2.Events) || rec1.Events[i] != rec2.Events[i] {
					t.Fatalf("seed %d: traces diverge at event %d: %+v vs %+v",
						seed, i, rec1.Events[i], rec2.Events[i])
				}
			}
			t.Fatalf("seed %d: trace lengths differ: %d vs %d", seed, len(rec1.Events), len(rec2.Events))
		}
	}
}

// TestGrayOffBitIdentical: with every gray knob off, a run traced under
// the new build must be indistinguishable from the legacy rails path —
// same events even while a (silent, undetected) sag is in effect.
func TestGrayOffBitIdentical(t *testing.T) {
	size := 2 * float64(units.GB)
	run := func() (*trace.Recorder, float64) {
		p := testbed.NewMotivatingPair()
		rec := &trace.Recorder{}
		p.Eng.SetTracer(rec)
		tr, err := Start(p.Links, p.A, creditCfg(), grayParams(false, false),
			pipe.Zero{}, pipe.Null{}, size, nil)
		if err != nil {
			t.Fatal(err)
		}
		p.Eng.At(0.1, func() { p.Links[1].GrayDegrade(0.3) })
		p.Eng.Run()
		return rec, tr.Transferred()
	}
	rec1, got1 := run()
	rec2, got2 := run()
	if got1 != got2 || !reflect.DeepEqual(rec1.Events, rec2.Events) {
		t.Fatal("gray-off replay diverged")
	}
	for _, ev := range rec1.Events {
		if ev.Subsys == "railmgr" {
			t.Fatalf("gray-off run produced a railmgr verdict: %+v", ev)
		}
	}
}
