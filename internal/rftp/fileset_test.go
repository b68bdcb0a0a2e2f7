package rftp

import (
	"fmt"
	"testing"

	"e2edt/internal/pipe"
	"e2edt/internal/sim"
	"e2edt/internal/testbed"
	"e2edt/internal/units"
)

func uniformSet(n int, size int64) []FileSpec {
	files := make([]FileSpec, n)
	for i := range files {
		files[i] = FileSpec{Name: fmt.Sprintf("f%04d", i), Size: size}
	}
	return files
}

func TestStartSetValidation(t *testing.T) {
	p := testbed.NewMotivatingPair()
	if _, err := StartSet(nil, p.A, DefaultConfig(), DefaultParams(), pipe.Zero{}, pipe.Null{}, uniformSet(1, units.MB), nil); err == nil {
		t.Error("no links should fail")
	}
	if _, err := StartSet(p.Links, p.A, DefaultConfig(), DefaultParams(), pipe.Zero{}, pipe.Null{}, nil, nil); err == nil {
		t.Error("empty set should fail")
	}
	if _, err := StartSet(p.Links, p.A, DefaultConfig(), DefaultParams(), pipe.Zero{}, pipe.Null{},
		[]FileSpec{{Name: "bad", Size: 0}}, nil); err == nil {
		t.Error("zero-size file should fail")
	}
	if _, err := StartSet(p.Links, p.A, Config{}, DefaultParams(), pipe.Zero{}, pipe.Null{}, uniformSet(1, units.MB), nil); err == nil {
		t.Error("bad config should fail")
	}
}

func TestSetTransfersAllFiles(t *testing.T) {
	p := testbed.NewMotivatingPair()
	files := uniformSet(30, 512*units.MB)
	var done sim.Time
	st, err := StartSet(p.Links, p.A, DefaultConfig(), DefaultParams(),
		pipe.Zero{}, pipe.Null{}, files, func(now sim.Time) { done = now })
	if err != nil {
		t.Fatal(err)
	}
	p.Eng.Run()
	if done <= 0 {
		t.Fatal("set never completed")
	}
	if st.Delivered() != 30 {
		t.Fatalf("completed %d of 30 files", st.Delivered())
	}
	want := TotalBytes(files)
	if got := st.Transferred(); !near(got, want, 1e-9) {
		t.Fatalf("moved %v of %v bytes", got, want)
	}
	if st.Finished() != done || st.Bandwidth() <= 0 {
		t.Fatal("bookkeeping wrong")
	}
}

func TestLargeFilesApproachStreamRate(t *testing.T) {
	// Few huge files: per-file overhead amortizes; rate approaches the
	// continuous-transfer rate.
	p := testbed.NewMotivatingPair()
	st, err := StartSet(p.Links, p.A, DefaultConfig(), DefaultParams(),
		pipe.Zero{}, pipe.Null{}, uniformSet(3, 8*units.GB), nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Eng.Run()
	g := units.ToGbps(st.Bandwidth())
	if g < 100 {
		t.Fatalf("large-file set = %.1f Gbps, want ≈ line rate", g)
	}
}

func TestSmallFilesLatencyBound(t *testing.T) {
	// Many small files over the WAN: each pays a 95 ms control round
	// trip, so goodput collapses — the small-file problem.
	w := testbed.NewWAN()
	cfg := DefaultConfig()
	cfg.Streams = 1
	st, err := StartSet(w.LinkSlice(), w.A, cfg, DefaultParams(),
		pipe.Zero{}, pipe.Null{}, uniformSet(50, units.MB), nil)
	if err != nil {
		t.Fatal(err)
	}
	w.Eng.Run()
	// 50 files × ≥1 RTT control ≈ ≥4.75 s for 50 MB: well under 1 Gbps.
	if g := units.ToGbps(st.Bandwidth()); g > 1 {
		t.Fatalf("small-file WAN set = %.2f Gbps, should be latency-bound", g)
	}
	if st.Delivered() != 50 {
		t.Fatalf("completed %d of 50", st.Delivered())
	}
}

func TestSmallVsLargeFilesOnWAN(t *testing.T) {
	run := func(n int, size int64) float64 {
		w := testbed.NewWAN()
		cfg := DefaultConfig()
		cfg.Streams = 4
		st, err := StartSet(w.LinkSlice(), w.A, cfg, DefaultParams(),
			pipe.Zero{}, pipe.Null{}, uniformSet(n, size), nil)
		if err != nil {
			t.Fatal(err)
		}
		w.Eng.Run()
		return st.Bandwidth()
	}
	// Same 4 GB total volume, different granularity.
	small := run(1024, 4*units.MB)
	large := run(4, units.GB)
	if small >= large {
		t.Fatalf("small files (%v) should trail large files (%v)", small, large)
	}
	if large/small < 2 {
		t.Fatalf("file-size effect too weak: %v vs %v", small, large)
	}
}

func TestSetProgressMidFlight(t *testing.T) {
	p := testbed.NewMotivatingPair()
	st, err := StartSet(p.Links, p.A, DefaultConfig(), DefaultParams(),
		pipe.Zero{}, pipe.Null{}, uniformSet(10, units.GB), nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Eng.RunUntil(0.3)
	mid := st.Transferred()
	if mid <= 0 {
		t.Fatal("no progress mid-flight")
	}
	if mid >= st.Size {
		t.Fatal("progress overshot")
	}
	p.Eng.Run()
	if st.Delivered() != 10 {
		t.Fatalf("completed %d", st.Delivered())
	}
}

// TestSetReleasesResources: a finished set session retires its endpoint
// threads' limiter resources, leaving the fluid network as it found it.
func TestSetReleasesResources(t *testing.T) {
	p := testbed.NewMotivatingPair()
	net := p.Links[0].Sim().Network
	before := len(net.Resources())
	var done sim.Time
	if _, err := StartSet(p.Links, p.A, DefaultConfig(), DefaultParams(),
		pipe.Zero{}, pipe.Null{}, uniformSet(6, 64*units.MB), func(now sim.Time) { done = now }); err != nil {
		t.Fatal(err)
	}
	p.Eng.Run()
	if done <= 0 {
		t.Fatal("set never completed")
	}
	if got := len(net.Resources()); got != before {
		t.Fatalf("resources %d → %d after a finished set", before, got)
	}
	if n := len(net.Flows()); n != 0 {
		t.Fatalf("%d flows left after a finished set", n)
	}
}

// TestSetStop: a set stopped mid-flight leaves no flow behind, never
// completes, and keeps only fully transferred files' bytes.
func TestSetStop(t *testing.T) {
	p := testbed.NewMotivatingPair()
	net := p.Links[0].Sim().Network
	before := len(net.Resources())
	completed := false
	st, err := StartSet(p.Links, p.A, DefaultConfig(), DefaultParams(),
		pipe.Zero{}, pipe.Null{}, uniformSet(10, units.GB), func(sim.Time) { completed = true })
	if err != nil {
		t.Fatal(err)
	}
	p.Eng.RunUntil(0.3)
	st.Stop()
	mid := st.Delivered()
	if mid == 10 {
		t.Fatal("set finished before Stop")
	}
	p.Eng.Run()
	if completed {
		t.Fatal("OnComplete fired after Stop")
	}
	if n := len(net.Flows()); n != 0 {
		t.Fatalf("%d flows left after Stop", n)
	}
	if got := len(net.Resources()); got != before {
		t.Fatalf("resources %d → %d after Stop", before, got)
	}
	if st.Delivered() != mid || st.Transferred() != float64(mid)*float64(units.GB) {
		t.Fatalf("progress after Stop: %d files, %.0f bytes (had %d files)", st.Delivered(), st.Transferred(), mid)
	}
}

func TestTotalBytes(t *testing.T) {
	if TotalBytes(nil) != 0 {
		t.Fatal("empty set should total 0")
	}
	if TotalBytes(uniformSet(3, 7)) != 21 {
		t.Fatal("TotalBytes wrong")
	}
}

// TestItemSessionsLeaveNothingBehind: a drained file set or object window
// leaves the links without watchers and the fluid network with the flows,
// resources and active transfers it had before, with or without rail
// management (whose manager also watches every rail).
func TestItemSessionsLeaveNothingBehind(t *testing.T) {
	for _, mode := range []struct {
		name string
		prm  Params
	}{{"plain", DefaultParams()}, {"rails", railParams()}} {
		for _, fr := range framings[1:] {
			t.Run(mode.name+"/"+fr.name, func(t *testing.T) {
				p := testbed.NewMotivatingPair()
				net := p.Sim.Network
				flows, resources := len(net.Flows()), len(net.Resources())
				tr, err := fr.start(p, DefaultConfig(), mode.prm)
				if err != nil {
					t.Fatal(err)
				}
				p.Eng.Run()
				if tr.Delivered() != fr.items {
					t.Fatalf("delivered %d of %d items", tr.Delivered(), fr.items)
				}
				for _, l := range p.Links {
					if n := l.Watchers(); n != 0 {
						t.Fatalf("%s keeps %d watchers", l.Cfg.Name, n)
					}
				}
				if f, r, a := len(net.Flows()), len(net.Resources()), p.Sim.ActiveTransfers(); f != flows || r != resources || a != 0 {
					t.Fatalf("flows %d → %d, resources %d → %d, %d transfers active", flows, f, resources, r, a)
				}
			})
		}
	}
}
