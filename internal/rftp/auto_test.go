package rftp

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"e2edt/internal/numa"
	"e2edt/internal/pipe"
	"e2edt/internal/placer"
	"e2edt/internal/sim"
	"e2edt/internal/testbed"
	"e2edt/internal/trace"
	"e2edt/internal/units"
)

// TestAutoPolicyPlacesAndCompletes: a PolicyAuto transfer with a placer
// wired in must complete exactly-once, and the engine must have placed
// every side entity (two per rail: client and server).
func TestAutoPolicyPlacesAndCompletes(t *testing.T) {
	p := testbed.NewMotivatingPair()
	cfg := DefaultConfig()
	cfg.Policy = numa.PolicyAuto
	pl := placer.New(p.A.Sim)
	cfg.Placer = pl
	size := 4 * float64(units.GB)
	var doneAt sim.Time
	tr, err := Start(p.Links, p.A, cfg, DefaultParams(),
		pipe.Zero{}, pipe.Null{}, size, func(now sim.Time) { doneAt = now })
	if err != nil {
		t.Fatal(err)
	}
	p.Eng.Run()
	if doneAt <= 0 {
		t.Fatal("auto transfer never completed")
	}
	if got := tr.Transferred(); math.Abs(got-size) > 1 {
		t.Fatalf("delivered %g, want exactly %g", got, size)
	}
	if got, want := pl.Placements(), 2*len(p.Links); got != want {
		t.Fatalf("placements = %d, want %d (client+server per rail)", got, want)
	}
}

// TestAutoPolicyWithoutPlacerStaysUnpinned: PolicyAuto with no engine wired
// degrades to the default unbound model rather than failing.
func TestAutoPolicyWithoutPlacerStaysUnpinned(t *testing.T) {
	p := testbed.NewMotivatingPair()
	cfg := DefaultConfig()
	cfg.Policy = numa.PolicyAuto
	var doneAt sim.Time
	_, err := Start(p.Links, p.A, cfg, DefaultParams(),
		pipe.Zero{}, pipe.Null{}, 2*float64(units.GB), func(now sim.Time) { doneAt = now })
	if err != nil {
		t.Fatal(err)
	}
	p.Eng.Run()
	if doneAt <= 0 {
		t.Fatal("transfer never completed")
	}
}

// TestRandomizedAutoPlacementDeterminism sweeps 20 seeds of (kill time,
// rail, restore-or-not) under PolicyAuto with an adaptive placer and
// checks, for each: exactly-once delivery, a bit-identical event trace on
// replay — every placement and migration decision at the same virtual time
// with the same outcome — and a bounded migration count.
func TestRandomizedAutoPlacementDeterminism(t *testing.T) {
	size := 6 * float64(units.GB)
	const migrationBound = 40
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		killAt := sim.Time(0.05 + rng.Float64()*0.3)
		rail := rng.Intn(3)
		restore := rng.Float64() < 0.5
		restoreAt := killAt + sim.Time(0.05+rng.Float64()*0.2)

		run := func() (*trace.Recorder, float64, sim.Time, placer.Stats) {
			p := testbed.NewMotivatingPair()
			rec := &trace.Recorder{}
			p.Eng.SetTracer(rec)
			cfg := DefaultConfig()
			cfg.Policy = numa.PolicyAuto
			pl := placer.New(p.A.Sim)
			cfg.Placer = pl
			var doneAt sim.Time
			tr, err := Start(p.Links, p.A, cfg, railParams(),
				pipe.Zero{}, pipe.Null{}, size, func(now sim.Time) { doneAt = now })
			if err != nil {
				t.Fatal(err)
			}
			p.Eng.At(killAt, p.Links[rail].Fail)
			if restore {
				p.Eng.At(restoreAt, p.Links[rail].Restore)
			}
			p.Eng.Run()
			return rec, tr.Transferred(), doneAt, pl.Stats()
		}

		rec1, got1, done1, st1 := run()
		rec2, got2, done2, st2 := run()
		if done1 <= 0 {
			t.Fatalf("seed %d: transfer never completed (kill %v rail %d restore %v)",
				seed, killAt, rail, restore)
		}
		if !near(got1, size, 1e-6) {
			t.Fatalf("seed %d: delivered %g, want exactly %g", seed, got1, size)
		}
		if st1.Placements == 0 {
			t.Fatalf("seed %d: no placements committed", seed)
		}
		if st1.Migrations > migrationBound {
			t.Fatalf("seed %d: %d migrations exceed bound %d", seed, st1.Migrations, migrationBound)
		}
		if got1 != got2 || done1 != done2 || st1 != st2 {
			t.Fatalf("seed %d: replay diverged: (%g,%v,%+v) vs (%g,%v,%+v)",
				seed, got1, done1, st1, got2, done2, st2)
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
			t.Fatalf("seed %d: traces diverge in length: %d vs %d",
				seed, len(rec1.Events), len(rec2.Events))
		}
	}
}
