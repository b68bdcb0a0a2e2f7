package rftp

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"e2edt/internal/pipe"
	"e2edt/internal/railmgr"
	"e2edt/internal/sim"
	"e2edt/internal/testbed"
	"e2edt/internal/trace"
	"e2edt/internal/units"
)

// railParams enables recovery plus rail management.
func railParams() Params {
	p := recoveryParams()
	p.Rails = railmgr.DefaultPolicy()
	return p
}

func TestRailsRequireRecovery(t *testing.T) {
	p := testbed.NewMotivatingPair()
	prm := DefaultParams()
	prm.Rails = railmgr.DefaultPolicy() // but AckTimeout == 0
	if _, err := Start(p.Links, p.A, DefaultConfig(), prm, pipe.Zero{}, pipe.Null{}, math.Inf(1), nil); err == nil {
		t.Fatal("Rails without AckTimeout should fail Start")
	}
}

// TestFailoverSurvivesPermanentRailDeath is the tentpole scenario: one of
// three rails dies mid-transfer and never comes back; its streams migrate
// and the transfer completes with every byte delivered exactly once.
func TestFailoverSurvivesPermanentRailDeath(t *testing.T) {
	p := testbed.NewMotivatingPair()
	size := 12 * float64(units.GB)
	var doneAt sim.Time
	failures := 0
	tr, err := Start(p.Links, p.A, DefaultConfig(), railParams(),
		pipe.Zero{}, pipe.Null{}, size, func(now sim.Time) { doneAt = now })
	if err != nil {
		t.Fatal(err)
	}
	tr.OnFailure = func(sim.Time) { failures++ }
	p.Eng.At(0.2, func() { p.Links[1].Fail() }) // permanent: never restored
	p.Eng.Run()
	if doneAt <= 0 {
		t.Fatal("transfer never completed despite two surviving rails")
	}
	if failures != 0 {
		t.Fatalf("OnFailure fired %d times; failover should have saved the transfer", failures)
	}
	if got := tr.Transferred(); !near(got, size, 1e-6) {
		t.Fatalf("delivered %g, want exactly %g (zero lost bytes)", got, size)
	}
	if tr.Migrations < 1 {
		t.Fatalf("migrations = %d, want ≥1", tr.Migrations)
	}
	lats := tr.MigrationLatencies()
	if len(lats) != tr.Migrations {
		t.Fatalf("latency samples = %d, migrations = %d", len(lats), tr.Migrations)
	}
	// Migration pays loss detection at worst plus a control round trip —
	// nothing in it waits out a backoff ladder.
	bound := railParams().AckTimeout + 50*sim.Millisecond
	for _, l := range lats {
		if l <= 0 || l > bound {
			t.Fatalf("migration latency %v outside (0, %v]", l, bound)
		}
	}
	// The survivor rails carry the orphaned stream: no stream may still be
	// bound to the dead rail.
	for _, s := range tr.streams {
		if s.rail == 1 {
			t.Fatalf("stream %d still bound to the dead rail", s.idx)
		}
	}
}

// TestFailbackReturnsStreamsHome: after a kill + restore, the re-probed
// rail is re-admitted and streams spread back without double delivery.
func TestFailbackReturnsStreamsHome(t *testing.T) {
	p := testbed.NewMotivatingPair()
	size := 18 * float64(units.GB)
	var doneAt sim.Time
	tr, err := Start(p.Links, p.A, DefaultConfig(), railParams(),
		pipe.Zero{}, pipe.Null{}, size, func(now sim.Time) { doneAt = now })
	if err != nil {
		t.Fatal(err)
	}
	p.Eng.At(0.2, func() { p.Links[0].Fail() })
	p.Eng.At(0.5, func() { p.Links[0].Restore() })
	p.Eng.Run()
	if doneAt <= 0 {
		t.Fatal("transfer never completed")
	}
	if got := tr.Transferred(); !near(got, size, 1e-6) {
		t.Fatalf("delivered %g, want exactly %g", got, size)
	}
	if tr.Migrations < 1 {
		t.Fatalf("migrations = %d, want ≥1", tr.Migrations)
	}
	if tr.Failbacks < 1 {
		t.Fatalf("failbacks = %d, want ≥1 after restore", tr.Failbacks)
	}
	if tr.Rails().Readmissions != 1 {
		t.Fatalf("readmissions = %d, want 1", tr.Rails().Readmissions)
	}
}

// TestRemigrationAfterSecondRailDeath: stream 0 fails over from rail 0 to
// rail 1; when rail 1 dies too, the rail watcher declares it lost at the
// instant of the kill and it migrates again, with rail 1's own stream,
// onto rail 2. Delivery stays exactly-once throughout.
func TestRemigrationAfterSecondRailDeath(t *testing.T) {
	p := testbed.NewMotivatingPair()
	size := 12 * float64(units.GB)
	var doneAt sim.Time
	tr, err := Start(p.Links, p.A, DefaultConfig(), railParams(),
		pipe.Zero{}, pipe.Null{}, size, func(now sim.Time) { doneAt = now })
	if err != nil {
		t.Fatal(err)
	}
	s0 := tr.streams[0]
	p.Eng.At(0.2, func() { p.Links[0].Fail() })
	p.Eng.At(0.39, func() {
		if s0.rail != 1 || s0.recovering {
			t.Errorf("before the second kill: stream 0 on rail %d (recovering %v), want flowing on 1",
				s0.rail, s0.recovering)
		}
	})
	p.Eng.At(0.4, func() {
		p.Links[1].Fail()
		if s0.rail != 2 || !s0.recovering || s0.faultAt != 0.4 {
			t.Errorf("at the second kill: stream 0 on rail %d (recovering %v, fault at %v), want migrating to 2 at 0.4",
				s0.rail, s0.recovering, s0.faultAt)
		}
	})
	last := -1.0
	tk := p.Eng.NewTicker(0.01, func(sim.Time) {
		got := tr.Transferred()
		if got < last || got > size*(1+1e-9) {
			t.Fatalf("Transferred %g after %g (size %g): not monotonic exactly-once", got, last, size)
		}
		last = got
	})
	p.Eng.At(5, tk.Stop)
	p.Eng.Run()
	if doneAt <= 0 {
		t.Fatal("transfer never completed on the last surviving rail")
	}
	if got := tr.Transferred(); !near(got, size, 1e-6) {
		t.Fatalf("delivered %g, want exactly %g", got, size)
	}
	if tr.Migrations != 3 {
		t.Fatalf("migrations = %d, want 3 (stream 0 twice, stream 1 once)", tr.Migrations)
	}
}

// TestRebalanceShiftsCreditsUnderDegrade: degrading one rail moves credit
// window toward healthy rails, conserving the pool, without migrating.
func TestRebalanceShiftsCreditsUnderDegrade(t *testing.T) {
	p := testbed.NewMotivatingPair()
	tr, err := Start(p.Links, p.A, DefaultConfig(), railParams(),
		pipe.Zero{}, pipe.Null{}, math.Inf(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Eng.RunUntil(0.05)
	base := make([]float64, 3)
	for i, s := range tr.streams {
		base[i] = s.transfer.Flow.Demand()
	}
	p.Links[1].Degrade(0.5)
	p.Eng.RunUntil(0.1)
	d := make([]float64, 3)
	sumBefore, sumAfter := 0.0, 0.0
	for i, s := range tr.streams {
		d[i] = s.transfer.Flow.Demand()
		sumBefore += base[i]
		sumAfter += d[i]
	}
	if !(d[1] < base[1]) {
		t.Fatalf("degraded rail demand did not shrink: %g -> %g", base[1], d[1])
	}
	if !(d[0] > base[0]) || !(d[2] > base[2]) {
		t.Fatalf("healthy rails did not gain credit: %v -> %v", base, d)
	}
	if !near(sumAfter, sumBefore, 1e-9) {
		t.Fatalf("credit pool not conserved: %g -> %g", sumBefore, sumAfter)
	}
	if tr.Migrations != 0 || tr.Retransmitted != 0 {
		t.Fatal("degradation must rebalance, never migrate or retransmit")
	}
	// Clearing the degradation restores the original split.
	p.Links[1].Degrade(1)
	p.Eng.RunUntil(0.15)
	for i, s := range tr.streams {
		if !near(s.transfer.Flow.Demand(), base[i], 1e-9) {
			t.Fatalf("demand %d not restored: %g, want %g", i, s.transfer.Flow.Demand(), base[i])
		}
	}
	tr.Stop()
}

// TestRandomizedFailoverDeterminism sweeps 20 seeds of (kill time, rail,
// restore-or-not) and checks, for each: exactly-once delivery, monotonic
// Transferred, and a bit-identical event trace on replay.
func TestRandomizedFailoverDeterminism(t *testing.T) {
	size := 6 * float64(units.GB)
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		killAt := sim.Time(0.05 + rng.Float64()*0.3)
		rail := rng.Intn(3)
		restore := rng.Float64() < 0.5
		restoreAt := killAt + sim.Time(0.05+rng.Float64()*0.2)

		run := func(sample bool) (*trace.Recorder, float64, sim.Time) {
			p := testbed.NewMotivatingPair()
			rec := &trace.Recorder{}
			p.Eng.SetTracer(rec)
			var doneAt sim.Time
			tr, err := Start(p.Links, p.A, DefaultConfig(), railParams(),
				pipe.Zero{}, pipe.Null{}, size, func(now sim.Time) { doneAt = now })
			if err != nil {
				t.Fatal(err)
			}
			p.Eng.At(killAt, p.Links[rail].Fail)
			if restore {
				p.Eng.At(restoreAt, p.Links[rail].Restore)
			}
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
				p.Eng.At(5, tk.Stop)
			}
			p.Eng.Run()
			return rec, tr.Transferred(), doneAt
		}

		// The sampling ticker perturbs the trace (it Syncs the fluid sim),
		// so monotonicity is checked on a separate sampled run and the
		// trace comparison uses two unsampled ones.
		run(true)
		rec1, got1, done1 := run(false)
		rec2, got2, done2 := run(false)
		if done1 <= 0 {
			t.Fatalf("seed %d: transfer never completed (kill %v rail %d restore %v)",
				seed, killAt, rail, restore)
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

// TestChecksumCatchesCorruption: with Config.Checksum on, an injected
// silent bit flip is detected and the corrupt block re-transferred; the
// transfer still delivers every byte.
func TestChecksumCatchesCorruption(t *testing.T) {
	p := testbed.NewMotivatingPair()
	cfg := DefaultConfig()
	cfg.Checksum = true
	size := 6 * float64(units.GB)
	var doneAt sim.Time
	tr, err := Start(p.Links, p.A, cfg, recoveryParams(),
		pipe.Zero{}, pipe.Null{}, size, func(now sim.Time) { doneAt = now })
	if err != nil {
		t.Fatal(err)
	}
	p.Eng.At(0.1, p.Links[0].InjectCorruption)
	p.Eng.At(0.2, p.Links[2].InjectCorruption)
	p.Eng.Run()
	if doneAt <= 0 {
		t.Fatal("transfer never completed")
	}
	if tr.CorruptionsDetected != 2 {
		t.Fatalf("detected = %d, want 2", tr.CorruptionsDetected)
	}
	if tr.IntegrityViolations != 0 {
		t.Fatalf("violations = %d, want 0 with checksum on", tr.IntegrityViolations)
	}
	if tr.Retransmitted <= 0 {
		t.Fatal("a caught corruption must retransmit the block")
	}
	if got := tr.Transferred(); !near(got, size, 1e-6) {
		t.Fatalf("delivered %g, want exactly %g", got, size)
	}
}

// TestCorruptionUndetectedWithoutChecksum: the same flip with Checksum
// off is delivered silently — the transfer completes, the bytes are wrong,
// and only the violation counter knows.
func TestCorruptionUndetectedWithoutChecksum(t *testing.T) {
	p := testbed.NewMotivatingPair()
	size := 6 * float64(units.GB)
	var doneAt sim.Time
	tr, err := Start(p.Links, p.A, DefaultConfig(), DefaultParams(),
		pipe.Zero{}, pipe.Null{}, size, func(now sim.Time) { doneAt = now })
	if err != nil {
		t.Fatal(err)
	}
	p.Eng.At(0.1, p.Links[0].InjectCorruption)
	p.Eng.Run()
	if doneAt <= 0 {
		t.Fatal("transfer never completed")
	}
	if tr.IntegrityViolations != 1 {
		t.Fatalf("violations = %d, want 1 with checksum off", tr.IntegrityViolations)
	}
	if tr.CorruptionsDetected != 0 {
		t.Fatalf("detected = %d, want 0 with checksum off", tr.CorruptionsDetected)
	}
	if tr.Retransmitted != 0 {
		t.Fatal("an undetected corruption must not retransmit anything")
	}
	// The corrupt block still counts as delivered — that is the violation.
	if got := tr.Transferred(); !near(got, size, 1e-6) {
		t.Fatalf("delivered %g, want %g (corrupt bytes included)", got, size)
	}
}

// TestChecksumCorruptionWorksWithoutRecovery: the integrity plane does not
// depend on the recovery ladder — legacy zero-AckTimeout sessions detect
// and re-transfer too, via the NACK retry path.
func TestChecksumCorruptionWorksWithoutRecovery(t *testing.T) {
	p := testbed.NewMotivatingPair()
	cfg := DefaultConfig()
	cfg.Checksum = true
	size := 6 * float64(units.GB)
	var doneAt sim.Time
	tr, err := Start(p.Links, p.A, cfg, DefaultParams(),
		pipe.Zero{}, pipe.Null{}, size, func(now sim.Time) { doneAt = now })
	if err != nil {
		t.Fatal(err)
	}
	p.Eng.At(0.15, p.Links[1].InjectCorruption)
	p.Eng.Run()
	if doneAt <= 0 {
		t.Fatal("transfer never completed")
	}
	if tr.CorruptionsDetected != 1 {
		t.Fatalf("detected = %d, want 1", tr.CorruptionsDetected)
	}
	if got := tr.Transferred(); !near(got, size, 1e-6) {
		t.Fatalf("delivered %g, want exactly %g", got, size)
	}
}

// TestRecoveryGraceTracksKind: the watchdog grace a transfer reports must
// grow with the severity of the active recovery.
func TestRecoveryGraceTracksKind(t *testing.T) {
	p := testbed.NewMotivatingPair()
	tr, err := Start(p.Links, p.A, DefaultConfig(), railParams(),
		pipe.Zero{}, pipe.Null{}, 24*float64(units.GB), nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.ActiveRecovery() != KindNone || tr.RecoveryGrace() != 0 {
		t.Fatalf("idle transfer reports kind %v grace %v", tr.ActiveRecovery(), tr.RecoveryGrace())
	}
	var during sim.Duration
	var kind RecoveryKind
	p.Eng.At(0.1, func() { p.Links[0].Fail() })
	// Sample just after the rail watcher declares the loss and migrates:
	// failover is synchronous on link failure, so catch it mid-resume by
	// killing all rails (no usable target parks the streams).
	p.Eng.At(0.1001, func() {
		p.Links[1].Fail()
		p.Links[2].Fail()
	})
	p.Eng.At(0.15, func() {
		kind = tr.ActiveRecovery()
		during = tr.RecoveryGrace()
		p.Links[0].Restore()
		p.Links[1].Restore()
		p.Links[2].Restore()
	})
	p.Eng.RunUntil(1.5)
	if kind != KindFailover {
		t.Fatalf("active kind during all-rail outage = %v, want failover", kind)
	}
	retx := railParams().AckTimeout + railParams().RetryBackoffMax
	if during <= retx {
		t.Fatalf("failover grace %v not above retransmit grace %v", during, retx)
	}
	tr.Stop()
}
