package rftp

import (
	"math"
	"testing"

	"e2edt/internal/fabric"
	"e2edt/internal/numa"
	"e2edt/internal/pipe"
	"e2edt/internal/sim"
	"e2edt/internal/testbed"
	"e2edt/internal/units"
)

// near reports whether got is within tol of want, relative to |want|.
func near(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Abs(want)
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Streams: 0, BlockSize: units.MB, CreditsPerStream: 4},
		{Streams: 1, BlockSize: 0, CreditsPerStream: 4},
		{Streams: 1, BlockSize: units.MB, CreditsPerStream: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestStartValidation(t *testing.T) {
	p := testbed.NewMotivatingPair()
	if _, err := Start(nil, p.A, DefaultConfig(), DefaultParams(), pipe.Zero{}, pipe.Null{}, math.Inf(1), nil); err == nil {
		t.Error("no links should fail")
	}
	if _, err := Start(p.Links, p.A, Config{}, DefaultParams(), pipe.Zero{}, pipe.Null{}, math.Inf(1), nil); err == nil {
		t.Error("invalid config should fail")
	}
	if _, err := Start(p.Links, p.A, DefaultConfig(), DefaultParams(), pipe.Zero{}, pipe.Null{}, -1, nil); err == nil {
		t.Error("negative size should fail")
	}
	// A host not on the links.
	w := testbed.NewWAN()
	if _, err := Start(p.Links, w.A, DefaultConfig(), DefaultParams(), pipe.Zero{}, pipe.Null{}, math.Inf(1), nil); err == nil {
		t.Error("foreign sender should fail")
	}
}

func TestMemoryToMemoryLANSaturatesLinks(t *testing.T) {
	p := testbed.NewMotivatingPair()
	tr, err := Start(p.Links, p.A, DefaultConfig(), DefaultParams(), pipe.Zero{}, pipe.Null{}, math.Inf(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Eng.RunFor(10)
	g := units.ToGbps(tr.Transferred() / 10)
	// 3×40G links, zero-copy: expect ≥ 95% of 120 Gbps payload capacity.
	if g < 110 || g > 120 {
		t.Fatalf("RFTP mem-to-mem = %.1f Gbps, want ≈117", g)
	}
	rates := tr.StreamRates()
	if len(rates) != 3 {
		t.Fatalf("stream count = %d", len(rates))
	}
	tr.Stop()
}

func TestFiniteTransferCompletes(t *testing.T) {
	p := testbed.NewMotivatingPair()
	var doneAt sim.Time
	size := 12 * float64(units.GB)
	tr, err := Start(p.Links, p.A, DefaultConfig(), DefaultParams(),
		pipe.Zero{}, pipe.Null{}, size, func(now sim.Time) { doneAt = now })
	if err != nil {
		t.Fatal(err)
	}
	p.Eng.Run()
	if doneAt <= 0 {
		t.Fatal("transfer never completed")
	}
	if got := tr.Transferred(); !near(got, size, 1e-6) {
		t.Fatalf("transferred %v of %v", got, size)
	}
	if tr.Finished() != doneAt {
		t.Fatal("Finished() mismatch")
	}
	// 12 GB over ≈14.6 GB/s takes ≈0.82s plus handshake.
	if doneAt < 0.5 || doneAt > 2 {
		t.Fatalf("completed at %v, implausible", doneAt)
	}
	if tr.Bandwidth() <= 0 {
		t.Fatal("bandwidth unset")
	}
}

func TestHandshakeDelaysData(t *testing.T) {
	w := testbed.NewWAN()
	p := DefaultParams()
	p.HandshakeRTTs = 2
	tr, err := Start(w.LinkSlice(), w.A, DefaultConfig(), p, pipe.Zero{}, pipe.Null{}, math.Inf(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Before 2×95 ms nothing moves.
	w.Eng.RunUntil(0.18)
	if tr.Transferred() != 0 {
		t.Fatal("data moved before handshake finished")
	}
	w.Eng.RunUntil(1)
	if tr.Transferred() == 0 {
		t.Fatal("no data after handshake")
	}
	tr.Stop()
}

func TestCreditWindowLimitsWAN(t *testing.T) {
	w := testbed.NewWAN()
	cfg := DefaultConfig()
	cfg.Streams = 1
	cfg.BlockSize = 64 * units.KB
	cfg.CreditsPerStream = 64
	tr, err := Start(w.LinkSlice(), w.A, cfg, DefaultParams(), pipe.Zero{}, pipe.Null{}, math.Inf(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	w.Eng.RunUntil(20)
	got := tr.Transferred() / (20 - 2*0.095)
	want := 64 * float64(64*units.KB) / 0.095
	if !near(got, want, 0.02) {
		t.Fatalf("credit-limited rate = %v, want %v", got, want)
	}
	tr.Stop()
}

func TestBlockSizeMonotoneOnWAN(t *testing.T) {
	prev := 0.0
	for _, bs := range []int64{64 * units.KB, units.MB, 4 * units.MB} {
		w := testbed.NewWAN()
		cfg := DefaultConfig()
		cfg.Streams = 2
		cfg.BlockSize = bs
		tr, err := Start(w.LinkSlice(), w.A, cfg, DefaultParams(), pipe.Zero{}, pipe.Null{}, math.Inf(1), nil)
		if err != nil {
			t.Fatal(err)
		}
		w.Eng.RunFor(20)
		got := tr.Transferred() / 20
		if got <= prev {
			t.Fatalf("bandwidth not increasing with block size at %s: %v ≤ %v",
				units.FormatBytes(bs), got, prev)
		}
		prev = got
		tr.Stop()
	}
}

func TestWANSaturationAt97Percent(t *testing.T) {
	w := testbed.NewWAN()
	cfg := DefaultConfig()
	cfg.Streams = 8
	cfg.BlockSize = 16 * units.MB
	tr, err := Start(w.LinkSlice(), w.A, cfg, DefaultParams(), pipe.Zero{}, pipe.Null{}, math.Inf(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	w.Eng.RunFor(30)
	util := units.ToGbps(tr.Transferred()/30) / 40
	// Paper: RFTP reaches 97% of the raw 40 Gbps.
	if util < 0.95 || util > 1.0 {
		t.Fatalf("WAN utilization = %.3f, want ≈0.97", util)
	}
	tr.Stop()
}

func TestPerBlockCPUFallsWithBlockSize(t *testing.T) {
	cpu := func(bs int64) float64 {
		w := testbed.NewWAN()
		cfg := DefaultConfig()
		cfg.Streams = 4
		cfg.BlockSize = bs
		tr, err := Start(w.LinkSlice(), w.A, cfg, DefaultParams(), pipe.Zero{}, pipe.Null{}, math.Inf(1), nil)
		if err != nil {
			t.Fatal(err)
		}
		w.Eng.RunFor(20)
		bytes := tr.Transferred()
		tr.Stop()
		rep := w.A.HostCPUReport()
		// Normalize CPU by bytes moved: core-seconds per GB.
		return rep.ByCategory["user"] / (bytes / 1e9)
	}
	small := cpu(256 * units.KB)
	large := cpu(16 * units.MB)
	if small <= large {
		t.Fatalf("per-byte protocol CPU should fall with block size: %v ≤ %v", small, large)
	}
}

func TestUnpinnedPolicyAllowed(t *testing.T) {
	p := testbed.NewMotivatingPair()
	cfg := DefaultConfig()
	cfg.Policy = numa.PolicyDefault
	tr, err := Start(p.Links, p.A, cfg, DefaultParams(), pipe.Zero{}, pipe.Null{}, math.Inf(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Eng.RunFor(5)
	if tr.Transferred() <= 0 {
		t.Fatal("unpinned transfer moved nothing")
	}
	tr.Stop()
}

func TestStopHaltsStreams(t *testing.T) {
	p := testbed.NewMotivatingPair()
	tr, err := Start(p.Links, p.A, DefaultConfig(), DefaultParams(), pipe.Zero{}, pipe.Null{}, math.Inf(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Eng.RunFor(2)
	tr.Stop()
	moved := tr.Transferred()
	p.Eng.RunFor(2)
	if tr.Transferred() != moved {
		t.Fatal("data still moving after Stop")
	}
}

func TestZeroCopySenderCPUIsLow(t *testing.T) {
	// Figure 4: RFTP at ≈39 Gbps uses ≈122% CPU total (both ends),
	// dominated by the /dev/zero load, not the protocol.
	w := testbed.NewWAN()
	cfg := DefaultConfig()
	cfg.Streams = 8
	cfg.BlockSize = 4 * units.MB
	tr, err := Start(w.LinkSlice(), w.A, cfg, DefaultParams(), pipe.Zero{}, pipe.Null{}, math.Inf(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	w.Eng.RunFor(20)
	g := units.ToGbps(tr.Transferred() / 20)
	if g < 37 {
		t.Fatalf("rate = %.1f Gbps, want ≈39", g)
	}
	tr.Stop()
	total := (w.A.HostCPUReport().Total + w.B.HostCPUReport().Total) / 20 * 100
	// Paper: ≈122%; accept 80–170%.
	if total < 80 || total > 170 {
		t.Fatalf("RFTP total CPU = %.0f%%, want ≈122%%", total)
	}
}

func TestChecksumCostsCPU(t *testing.T) {
	run := func(checksum bool) (float64, float64) {
		p := testbed.NewMotivatingPair()
		cfg := DefaultConfig()
		cfg.Checksum = checksum
		tr, err := Start(p.Links, p.A, cfg, DefaultParams(), pipe.Zero{}, pipe.Null{}, math.Inf(1), nil)
		if err != nil {
			t.Fatal(err)
		}
		p.Eng.RunFor(10)
		bw := tr.Transferred() / 10
		tr.Stop()
		return bw, p.A.HostCPUReport().TotalPercent(10)
	}
	bwOff, cpuOff := run(false)
	bwOn, cpuOn := run(true)
	if cpuOn <= cpuOff*1.1 {
		t.Fatalf("checksum CPU %v should clearly exceed %v", cpuOn, cpuOff)
	}
	if bwOn > bwOff {
		t.Fatalf("checksum (%v) should not beat plain (%v)", bwOn, bwOff)
	}
}

func TestTwoSessionsShareWANFairly(t *testing.T) {
	// Two independent RFTP sessions on the same 40G loop: max-min sharing
	// gives each ≈half once both saturate.
	w := testbed.NewWAN()
	cfg := DefaultConfig()
	cfg.Streams = 4
	cfg.BlockSize = 16 * units.MB
	t1, err := Start(w.LinkSlice(), w.A, cfg, DefaultParams(), pipe.Zero{}, pipe.Null{}, math.Inf(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Start(w.LinkSlice(), w.A, cfg, DefaultParams(), pipe.Zero{}, pipe.Null{}, math.Inf(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	w.Eng.RunFor(20)
	b1, b2 := t1.Transferred()/20, t2.Transferred()/20
	if !near(b2, b1, 0.01) {
		t.Fatalf("unfair sharing: %v vs %v", b1, b2)
	}
	total := units.ToGbps(b1 + b2)
	if total < 38 {
		t.Fatalf("combined = %.1f Gbps, want ≈39", total)
	}
}

func TestStartOffsetValidation(t *testing.T) {
	p := testbed.NewMotivatingPair()
	bad := DefaultParams()
	bad.StartOffset = -1
	if _, err := Start(p.Links, p.A, DefaultConfig(), bad, pipe.Zero{}, pipe.Null{}, float64(units.GB), nil); err == nil {
		t.Error("negative StartOffset should fail")
	}
	bad.StartOffset = units.GB
	if _, err := Start(p.Links, p.A, DefaultConfig(), bad, pipe.Zero{}, pipe.Null{}, float64(units.GB), nil); err == nil {
		t.Error("StartOffset at EOF should fail")
	}
}

func TestStartOffsetResumesTransfer(t *testing.T) {
	// A transfer stopped halfway and resumed with StartOffset must move the
	// same total bytes as an uninterrupted one.
	size := 12 * float64(units.GB)

	// Uninterrupted reference.
	ref := testbed.NewMotivatingPair()
	refTr, err := Start(ref.Links, ref.A, DefaultConfig(), DefaultParams(),
		pipe.Zero{}, pipe.Null{}, size, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref.Eng.Run()
	total := refTr.Transferred()
	if !near(total, size, 1e-6) {
		t.Fatalf("reference moved %v of %v", total, size)
	}

	// Interrupted: run to roughly half, stop, resume from the byte offset.
	p := testbed.NewMotivatingPair()
	tr, err := Start(p.Links, p.A, DefaultConfig(), DefaultParams(),
		pipe.Zero{}, pipe.Null{}, size, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Eng.RunFor(0.4)
	firstHalf := tr.Transferred()
	if firstHalf <= 0 || firstHalf >= size {
		t.Fatalf("first attempt moved %v, want partial progress", firstHalf)
	}
	tr.Stop()

	resumeP := DefaultParams()
	resumeP.StartOffset = int64(firstHalf)
	var doneAt sim.Time
	resumed, err := Start(p.Links, p.A, DefaultConfig(), resumeP,
		pipe.Zero{}, pipe.Null{}, size, func(now sim.Time) { doneAt = now })
	if err != nil {
		t.Fatal(err)
	}
	p.Eng.Run()
	if doneAt <= 0 {
		t.Fatal("resumed transfer never completed")
	}
	secondHalf := resumed.Transferred()
	want := size - float64(int64(firstHalf))
	if !near(secondHalf, want, 1e-6) {
		t.Fatalf("resumed session moved %v, want %v", secondHalf, want)
	}
	moved := float64(int64(firstHalf)) + secondHalf
	if !near(moved, total, 1e-6) {
		t.Fatalf("interrupted run moved %v total, uninterrupted moved %v", moved, total)
	}
}

// recoveryParams enables in-protocol recovery with tight test timings.
func recoveryParams() Params {
	p := DefaultParams()
	p.AckTimeout = 50 * sim.Millisecond
	p.RetryBackoff = 20 * sim.Millisecond
	p.RetryBackoffMax = 200 * sim.Millisecond
	p.MaxStreamRetries = 16
	return p
}

func TestRecoverySurvivesLinkFlap(t *testing.T) {
	p := testbed.NewMotivatingPair()
	size := 12 * float64(units.GB)
	var doneAt sim.Time
	failures := 0
	tr, err := Start(p.Links, p.A, DefaultConfig(), recoveryParams(),
		pipe.Zero{}, pipe.Null{}, size, func(now sim.Time) { doneAt = now })
	if err != nil {
		t.Fatal(err)
	}
	tr.OnFailure = func(sim.Time) { failures++ }
	p.Eng.At(0.2, func() { p.Links[0].Fail() })
	p.Eng.At(0.5, func() { p.Links[0].Restore() })
	p.Eng.Run()
	if doneAt <= 0 {
		t.Fatal("transfer never completed despite recovery")
	}
	if failures != 0 {
		t.Fatalf("OnFailure fired %d times; recovery should have handled the flap", failures)
	}
	if got := tr.Transferred(); !near(got, size, 1e-6) {
		t.Fatalf("delivered %g, want exactly %g", got, size)
	}
	if tr.Recoveries < 1 {
		t.Fatalf("recoveries = %d, want ≥1", tr.Recoveries)
	}
	if tr.Retransmitted <= 0 {
		t.Fatal("expected retransmitted bytes after a mid-flight flap")
	}
	lats := tr.RecoveryLatencies()
	if len(lats) != tr.Recoveries {
		t.Fatalf("latency samples = %d, recoveries = %d", len(lats), tr.Recoveries)
	}
	for _, l := range lats {
		if l <= 0 {
			t.Fatalf("non-positive recovery latency %v", l)
		}
	}
}

func TestRecoveryTransferredMonotonicExactlyOnce(t *testing.T) {
	p := testbed.NewMotivatingPair()
	size := 8 * float64(units.GB)
	tr, err := Start(p.Links, p.A, DefaultConfig(), recoveryParams(),
		pipe.Zero{}, pipe.Null{}, size, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Eng.At(0.1, func() { p.Links[1].Fail() })
	p.Eng.At(0.35, func() { p.Links[1].Restore() })
	last := -1.0
	tk := p.Eng.NewTicker(0.01, func(sim.Time) {
		got := tr.Transferred()
		if got < last {
			t.Fatalf("Transferred went backwards: %g after %g", got, last)
		}
		if got > size*(1+1e-9) {
			t.Fatalf("Transferred %g exceeds size %g (duplicate delivery)", got, size)
		}
		last = got
	})
	p.Eng.At(3, tk.Stop)
	p.Eng.Run()
	if got := tr.Transferred(); !near(got, size, 1e-6) {
		t.Fatalf("final delivered %g, want %g", got, size)
	}
}

func TestRecoveryExhaustionFiresOnFailureOnce(t *testing.T) {
	w := testbed.NewWAN()
	prm := recoveryParams()
	prm.MaxStreamRetries = 3
	cfg := DefaultConfig()
	cfg.Streams = 1
	failures := 0
	completed := false
	tr, err := Start([]*fabric.Link{w.Link}, w.A, cfg, prm,
		pipe.Zero{}, pipe.Null{}, 4*float64(units.GB), func(sim.Time) { completed = true })
	if err != nil {
		t.Fatal(err)
	}
	tr.OnFailure = func(sim.Time) { failures++ }
	w.Eng.At(0.5, func() { w.Link.Fail() }) // never restored
	w.Eng.Run()
	if completed {
		t.Fatal("transfer completed on a permanently dark link")
	}
	if failures != 1 {
		t.Fatalf("OnFailure fired %d times, want exactly 1", failures)
	}
	if !tr.Failed() {
		t.Fatal("Failed() should report true")
	}
}

func TestDegradedLinkSlowsWithoutRetransmit(t *testing.T) {
	p := testbed.NewMotivatingPair()
	size := 6 * float64(units.GB)
	var doneAt sim.Time
	tr, err := Start(p.Links, p.A, DefaultConfig(), recoveryParams(),
		pipe.Zero{}, pipe.Null{}, size, func(now sim.Time) { doneAt = now })
	if err != nil {
		t.Fatal(err)
	}
	p.Eng.At(0.05, func() { p.Links[0].Degrade(0.25) })
	p.Eng.Run()
	if doneAt <= 0 {
		t.Fatal("transfer never completed on a degraded link")
	}
	if tr.Recoveries != 0 || tr.Retransmitted != 0 {
		t.Fatalf("degradation should not trigger retransmission (recoveries=%d, retx=%g)",
			tr.Recoveries, tr.Retransmitted)
	}
	if got := tr.Transferred(); !near(got, size, 1e-6) {
		t.Fatalf("delivered %g, want %g", got, size)
	}
}

// TestLinkEventDeclaresLossAtOnce: with recovery on and no rail manager,
// an error burst or a link failure is reported by the rail watcher, so the
// stream riding that rail declares its window lost at the event itself
// rather than after AckTimeout of stalled progress.
func TestLinkEventDeclaresLossAtOnce(t *testing.T) {
	for _, tc := range []struct {
		name   string
		inject func(l *fabric.Link)
	}{
		{"burst", (*fabric.Link).InjectErrorBurst},
		{"down", (*fabric.Link).Fail},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := testbed.NewMotivatingPair()
			size := 6 * float64(units.GB)
			var doneAt sim.Time
			tr, err := Start(p.Links, p.A, DefaultConfig(), recoveryParams(),
				pipe.Zero{}, pipe.Null{}, size, func(now sim.Time) { doneAt = now })
			if err != nil {
				t.Fatal(err)
			}
			p.Eng.At(0.2, func() {
				tc.inject(p.Links[2])
				s := tr.streams[2]
				if !s.recovering || s.kind != KindRetransmit || tr.Retransmitted <= 0 {
					t.Errorf("after %s: stream 2 recovering=%v kind=%v retx=%g, want loss declared at once",
						tc.name, s.recovering, s.kind, tr.Retransmitted)
				}
				for _, o := range tr.streams[:2] {
					if o.recovering {
						t.Errorf("stream %d on a healthy rail declared lost", o.idx)
					}
				}
			})
			p.Eng.At(0.3, func() {
				if tc.name == "down" {
					p.Links[2].Restore()
				}
			})
			p.Eng.Run()
			if doneAt <= 0 {
				t.Fatal("transfer never completed")
			}
			if got := tr.Transferred(); !near(got, size, 1e-6) {
				t.Fatalf("delivered %g, want exactly %g", got, size)
			}
			if tr.Recoveries < 1 {
				t.Fatalf("recoveries = %d, want ≥1", tr.Recoveries)
			}
		})
	}
}

// TestLossBeforeHandshakeLeavesNoFlow: a rail that fails before the
// session handshake breaks a stream whose flow is built but not yet
// started. The retransmission runs on a fresh flow, and the unstarted one
// must leave the network with it: a stale flow still charging the
// endpoint threads would make releasing them at completion panic.
func TestLossBeforeHandshakeLeavesNoFlow(t *testing.T) {
	p := testbed.NewMotivatingPair()
	net := p.Sim.Network
	flows, resources := len(net.Flows()), len(net.Resources())
	size := 4 * float64(units.GB)
	tr, err := Start(p.Links, p.A, DefaultConfig(), recoveryParams(), pipe.Zero{}, pipe.Null{}, size, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Links[0].Fail()
	p.Eng.At(0.05, p.Links[0].Restore)
	p.Eng.Run()
	if tr.Finished() <= 0 || tr.Recoveries < 1 {
		t.Fatalf("finished at %v with %d recoveries, want completion after ≥1 recovery", tr.Finished(), tr.Recoveries)
	}
	if got := tr.Transferred(); !near(got, size, 1e-6) {
		t.Fatalf("delivered %g, want exactly %g", got, size)
	}
	if f, r := len(net.Flows()), len(net.Resources()); f != flows || r != resources {
		t.Fatalf("flows %d → %d, resources %d → %d", flows, f, resources, r)
	}
}

// TestLinkEventsIgnoredWithoutRecovery: with recovery off nothing watches
// for loss, so error bursts and a flap only stall the stream; no recovery,
// retransmission or migration is counted and every byte still arrives.
func TestLinkEventsIgnoredWithoutRecovery(t *testing.T) {
	p := testbed.NewMotivatingPair()
	size := 6 * float64(units.GB)
	var doneAt sim.Time
	tr, err := Start(p.Links, p.A, DefaultConfig(), DefaultParams(),
		pipe.Zero{}, pipe.Null{}, size, func(now sim.Time) { doneAt = now })
	if err != nil {
		t.Fatal(err)
	}
	p.Eng.At(0.1, func() { p.Links[0].InjectErrorBurst() })
	p.Eng.At(0.2, func() { p.Links[1].Fail() })
	p.Eng.At(0.25, func() { p.Links[2].InjectErrorBurst() })
	p.Eng.At(0.3, func() { p.Links[1].Restore() })
	p.Eng.Run()
	if doneAt <= 0 {
		t.Fatal("transfer never completed after the flap healed")
	}
	if tr.Recoveries != 0 || tr.Retransmitted != 0 || tr.Migrations != 0 {
		t.Fatalf("recovery off: recoveries=%d retx=%g migrations=%d, want all 0",
			tr.Recoveries, tr.Retransmitted, tr.Migrations)
	}
	if got := tr.Transferred(); !near(got, size, 1e-6) {
		t.Fatalf("delivered %g, want exactly %g", got, size)
	}
}

func TestRecoveryDeterministic(t *testing.T) {
	run := func() (sim.Time, int, float64) {
		p := testbed.NewMotivatingPair()
		var doneAt sim.Time
		tr, err := Start(p.Links, p.A, DefaultConfig(), recoveryParams(),
			pipe.Zero{}, pipe.Null{}, 10*float64(units.GB), func(now sim.Time) { doneAt = now })
		if err != nil {
			t.Fatal(err)
		}
		p.Eng.At(0.2, func() { p.Links[2].Fail() })
		p.Eng.At(0.45, func() { p.Links[2].Restore() })
		p.Eng.At(0.6, func() { p.Links[2].InjectErrorBurst() })
		p.Eng.Run()
		return doneAt, tr.Recoveries, tr.Retransmitted
	}
	d1, r1, x1 := run()
	d2, r2, x2 := run()
	if d1 != d2 || r1 != r2 || x1 != x2 {
		t.Fatalf("non-deterministic recovery: (%v,%d,%g) vs (%v,%d,%g)", d1, r1, x1, d2, r2, x2)
	}
	if r1 < 2 {
		t.Fatalf("expected recoveries from both the flap and the error burst, got %d", r1)
	}
}
