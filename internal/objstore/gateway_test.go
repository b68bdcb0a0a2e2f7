package objstore

import (
	"fmt"
	"testing"

	"e2edt/internal/core"
	"e2edt/internal/railmgr"
	"e2edt/internal/sim"
	"e2edt/internal/trace"
	"e2edt/internal/units"
	"e2edt/internal/xfersched"
)

// newGateway assembles a small system + scheduler + gateway for tests.
func newGateway(t *testing.T, coalesce int) *Gateway {
	t.Helper()
	opt := core.DefaultOptions()
	opt.DatasetSize = 2 * units.GB
	sys, err := core.NewSystem(opt)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := xfersched.New(sys, xfersched.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sched.Close)
	p := DefaultParams()
	p.Coalesce = coalesce
	return NewGateway(sched, p, core.Forward)
}

func TestGatewayCompletesAndAudits(t *testing.T) {
	g := newGateway(t, 64)
	w := DefaultWorkload()
	w.Objects = 300
	objs := w.Generate()
	idx, err := g.Put(sim.Time(sim.Second), objs)
	if err != nil {
		t.Fatal(err)
	}
	if !g.RunToCompletion(300 * sim.Second) {
		t.Fatal("gateway did not drain")
	}
	if err := g.AuditExactlyOnce(); err != nil {
		t.Fatal(err)
	}
	n, bytes := g.ObjectsDone()
	var want float64
	for _, o := range objs {
		want += float64(o.Size)
	}
	if n != len(objs) || bytes != want {
		t.Fatalf("done = (%d, %.0f), want (%d, %.0f)", n, bytes, len(objs), want)
	}
	if g.Windows >= len(objs) {
		t.Fatalf("coalescing produced %d windows for %d objects", g.Windows, len(objs))
	}
	if g.Scans == 0 {
		t.Fatal("no amortized metadata scans recorded")
	}
	for _, i := range idx {
		if g.DoneAt(i) <= 0 {
			t.Fatalf("put %d has no delivery time", i)
		}
	}
}

func TestGatewayPerObjectMode(t *testing.T) {
	g := newGateway(t, 1)
	w := DefaultWorkload()
	w.Objects = 40
	objs := w.Generate()
	if _, err := g.Put(sim.Time(sim.Second), objs); err != nil {
		t.Fatal(err)
	}
	if !g.RunToCompletion(300 * sim.Second) {
		t.Fatal("gateway did not drain")
	}
	if err := g.AuditExactlyOnce(); err != nil {
		t.Fatal(err)
	}
	if g.Windows != len(objs) || g.Lookups != len(objs) || g.Scans != 0 {
		t.Fatalf("per-object mode: windows=%d lookups=%d scans=%d, want %d/%d/0",
			g.Windows, g.Lookups, g.Scans, len(objs), len(objs))
	}
}

// TestGatewayZeroLengthObjects: empty objects — mixed into windows and as
// an entire all-empty burst — complete exactly once end to end.
func TestGatewayZeroLengthObjects(t *testing.T) {
	g := newGateway(t, 16)
	objs := make([]PutSpec, 48)
	for i := range objs {
		objs[i] = PutSpec{Tenant: "t0", Bucket: "markers", Key: keyN(i), Size: 0}
	}
	idx, err := g.Put(sim.Time(sim.Second), objs)
	if err != nil {
		t.Fatal(err)
	}
	if !g.RunToCompletion(120 * sim.Second) {
		t.Fatal("all-empty burst did not drain")
	}
	if err := g.AuditExactlyOnce(); err != nil {
		t.Fatal(err)
	}
	n, bytes := g.ObjectsDone()
	if n != len(objs) || bytes != 0 {
		t.Fatalf("done = (%d, %.0f), want (%d, 0)", n, bytes, len(objs))
	}
	for _, i := range idx {
		if g.DoneAt(i) <= 0 {
			t.Fatalf("empty object %d never delivered", i)
		}
	}
}

func keyN(i int) string { return fmt.Sprintf("m/lock-%03d", i) }

func TestGatewayValidation(t *testing.T) {
	g := newGateway(t, 4)
	if _, err := g.Put(0, []PutSpec{{Tenant: "t", Bucket: "BAD", Key: "k", Size: 1}}); err == nil {
		t.Fatal("invalid bucket accepted")
	}
	if _, err := g.Put(0, []PutSpec{{Tenant: "t", Bucket: "abc", Key: "", Size: 1}}); err == nil {
		t.Fatal("empty key accepted")
	}
	if _, err := g.Put(0, []PutSpec{{Tenant: "t", Bucket: "abc", Key: "k", Size: -1}}); err == nil {
		t.Fatal("negative size accepted")
	}
}

// TestGatewayCoalescingReducesWindows: the same burst under aggressive
// coalescing submits far fewer windows and finishes sooner than per-object
// mode (the full quantified gate is experiment S8).
func TestGatewayCoalescingReducesWindows(t *testing.T) {
	run := func(coalesce int) (windows int, doneAt sim.Time) {
		g := newGateway(t, coalesce)
		w := DefaultWorkload()
		w.Objects = 200
		if _, err := g.Put(sim.Time(sim.Second), w.Generate()); err != nil {
			t.Fatal(err)
		}
		if !g.RunToCompletion(600 * sim.Second) {
			t.Fatal("did not drain")
		}
		if err := g.AuditExactlyOnce(); err != nil {
			t.Fatal(err)
		}
		last := sim.Time(0)
		for i := 0; i < 200; i++ {
			if at := g.DoneAt(i); at > last {
				last = at
			}
		}
		return g.Windows, last
	}
	wPer, tPer := run(1)
	wCo, tCo := run(256)
	if wCo >= wPer/8 {
		t.Fatalf("windows: coalesced %d vs per-object %d — not reduced enough", wCo, wPer)
	}
	if tCo >= tPer {
		t.Fatalf("coalesced finished at %v, per-object at %v — no speedup", tCo, tPer)
	}
}

// runHashed executes one full gateway run under a hashing tracer and
// returns the trace digest.
func runHashed(t *testing.T, seed int64, coalesce int) string {
	t.Helper()
	opt := core.DefaultOptions()
	opt.DatasetSize = 2 * units.GB
	sys, err := core.NewSystem(opt)
	if err != nil {
		t.Fatal(err)
	}
	h := trace.NewHasher()
	sys.Engine().SetTracer(h)
	sched, err := xfersched.New(sys, xfersched.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()
	p := DefaultParams()
	p.Coalesce = coalesce
	g := NewGateway(sched, p, core.Forward)
	w := DefaultWorkload()
	w.Objects = 96
	w.Seed = seed
	if _, err := g.Put(sim.Time(sim.Second), w.Generate()); err != nil {
		t.Fatal(err)
	}
	if !g.RunToCompletion(300 * sim.Second) {
		t.Fatal("did not drain")
	}
	if err := g.AuditExactlyOnce(); err != nil {
		t.Fatal(err)
	}
	return h.Sum()
}

// TestGatewayDeterminism20Seeds: twenty seeded workloads, each run twice —
// every pair of runs must be bit-identical (equal trace digests), and
// different seeds must diverge.
func TestGatewayDeterminism20Seeds(t *testing.T) {
	if testing.Short() {
		t.Skip("20-seed sweep")
	}
	sums := make(map[string]bool)
	for seed := int64(1); seed <= 20; seed++ {
		a := runHashed(t, seed, 32)
		b := runHashed(t, seed, 32)
		if a != b {
			t.Fatalf("seed %d: replay diverged (%s vs %s)", seed, a[:12], b[:12])
		}
		sums[a] = true
	}
	if len(sums) < 2 {
		t.Fatal("all seeds produced identical traces — workload seed is dead")
	}
}

// TestCoalescedBurstLeavesNothingBehind: after a coalesced burst drains,
// the front links hold no watchers and the fluid network is back to the
// flows, resources and active transfers it had before the burst, with and
// without rail management: each window is an rftp session that watches
// its rails, and it must unwatch them when it completes.
func TestCoalescedBurstLeavesNothingBehind(t *testing.T) {
	rails := core.DefaultOptions()
	rails.Recovery = true
	rails.Rails = railmgr.Policy{Enabled: true}
	for _, mode := range []struct {
		name string
		opt  core.Options
	}{{"single-link", core.DefaultOptions()}, {"rails", rails}} {
		t.Run(mode.name, func(t *testing.T) {
			mode.opt.DatasetSize = 2 * units.GB
			sys, err := core.NewSystem(mode.opt)
			if err != nil {
				t.Fatal(err)
			}
			sched, err := xfersched.New(sys, xfersched.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			defer sched.Close()
			p := DefaultParams()
			p.Coalesce = 64
			g := NewGateway(sched, p, core.Forward)
			fl := sys.TB.Sim
			flows, resources := len(fl.Network.Flows()), len(fl.Network.Resources())
			w := DefaultWorkload()
			w.Objects = 300
			if _, err := g.Put(sim.Time(sim.Millisecond), w.Generate()); err != nil {
				t.Fatal(err)
			}
			if !g.RunToCompletion(300 * sim.Second) {
				t.Fatal("gateway did not drain")
			}
			if err := g.AuditExactlyOnce(); err != nil {
				t.Fatal(err)
			}
			for _, l := range sys.TB.FrontLinks {
				if n := l.Watchers(); n != 0 {
					t.Fatalf("%s keeps %d watchers", l.Cfg.Name, n)
				}
			}
			if f, r, a := len(fl.Network.Flows()), len(fl.Network.Resources()), fl.ActiveTransfers(); f != flows || r != resources || a != 0 {
				t.Fatalf("flows %d → %d, resources %d → %d, %d transfers active", flows, f, resources, r, a)
			}
		})
	}
}
