package blockdev

import (
	"math"
	"testing"

	"e2edt/internal/fluid"
	"e2edt/internal/numa"
	"e2edt/internal/sim"
	"e2edt/internal/units"
)

func testSim(t *testing.T) (*sim.Engine, *fluid.Sim, *numa.Machine) {
	t.Helper()
	eng := sim.NewEngine()
	s := fluid.NewSim(eng)
	m := numa.MustNew(s, numa.Config{
		Name: "m", Nodes: 2, CoresPerNode: 8, CoreHz: 2e9,
		MemBandwidthPerNode:   25 * units.GBps,
		InterconnectBandwidth: 16 * units.GBps,
		RemoteAccessPenalty:   1.4, CoherencyWritePenalty: 3,
		MemBytes: 384 * units.GB,
	})
	return eng, s, m
}

func TestRamdiskPinnedToNode(t *testing.T) {
	_, _, m := testSim(t)
	r := NewRamdisk(m, "lun0", 50*units.GB, m.Node(1))
	if r.Name() != "lun0" || r.Size() != 50*units.GB {
		t.Fatal("ramdisk metadata wrong")
	}
	buf := r.MemoryBuffer()
	if buf == nil || !buf.Local(m.Node(1)) {
		t.Fatal("ramdisk buffer should be pinned to node 1")
	}
	if r.AccessLatency() <= 0 {
		t.Fatal("ramdisk latency must be positive")
	}
}

func TestRamdiskDefaultInterleaved(t *testing.T) {
	_, _, m := testSim(t)
	r := NewRamdisk(m, "lun", units.GB)
	if len(r.MemoryBuffer().Homes) != 2 {
		t.Fatal("default ramdisk should interleave across all nodes")
	}
}

func TestRamdiskExceedingMemoryPanics(t *testing.T) {
	_, _, m := testSim(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for oversized ramdisk")
		}
	}()
	NewRamdisk(m, "big", 400*units.GB, m.Node(0))
}

func TestRamdiskAttachIONoMediaCharge(t *testing.T) {
	_, s, m := testSim(t)
	r := NewRamdisk(m, "lun", units.GB, m.Node(0))
	f := s.NewFlow("f", 10)
	r.AttachIO(f, false, 4*units.MB, 1)
	if len(f.Uses) != 0 {
		t.Fatal("ramdisk should not add media resources")
	}
}

func TestSSDHealthyBandwidth(t *testing.T) {
	eng, s, _ := testSim(t)
	d := NewSSD(s, DefaultSSDConfig("ssd0", units.TB))
	f := s.NewFlow("f", math.Inf(1))
	d.AttachIO(f, false, 4*units.MB, 1)
	s.Start(&fluid.Transfer{Flow: f, Remaining: math.Inf(1)})
	eng.RunUntil(5)
	s.Sync()
	got := f.Rate()
	if got < 1.4*units.GBps || got > 1.5*units.GBps {
		t.Fatalf("healthy SSD read = %v, want ≈1.5 GB/s", units.ToGBps(got))
	}
	if d.Throttled() {
		t.Fatal("SSD throttled too early")
	}
}

func TestSSDThermalThrottleKicksIn(t *testing.T) {
	eng, s, _ := testSim(t)
	cfg := DefaultSSDConfig("ssd0", units.TB)
	d := NewSSD(s, cfg)
	f := s.NewFlow("f", math.Inf(1))
	d.AttachIO(f, true, 4*units.MB, 1)
	tr := &fluid.Transfer{Flow: f, Remaining: math.Inf(1)}
	s.Start(tr)
	// 100 GB at 1.3 GB/s ≈ 77 s to exhaust the thermal budget.
	eng.RunUntil(200)
	s.Sync()
	if !d.Throttled() {
		t.Fatal("sustained writes should trigger thermal throttling")
	}
	before := tr.Transferred()
	eng.RunUntil(210)
	s.Sync()
	rate := (tr.Transferred() - before) / 10
	if math.Abs(rate-cfg.ThrottledBandwidth) > 0.01*cfg.ThrottledBandwidth {
		t.Fatalf("throttled rate = %v MB/s, want ≈500", units.ToMBps(rate))
	}
}

func TestSSDRecoversAfterCooldown(t *testing.T) {
	eng, s, _ := testSim(t)
	cfg := DefaultSSDConfig("ssd0", units.TB)
	cfg.CooldownSeconds = 10
	d := NewSSD(s, cfg)
	f := s.NewFlow("f", math.Inf(1))
	d.AttachIO(f, true, 4*units.MB, 1)
	// Write ~110 GB then stop. The budget (100 GB) runs out after ≈77 s at
	// 1.3 GB/s; the remaining ~10 GB drain at 500 MB/s until ≈97 s.
	tr := &fluid.Transfer{Flow: f, Remaining: 110 * float64(units.GB)}
	s.Start(tr)
	eng.RunUntil(100)
	if !d.Throttled() {
		t.Fatal("expected throttling during the burst")
	}
	// Idle past the cooldown: governor restores full speed.
	eng.RunUntil(150)
	if d.Throttled() {
		t.Fatal("SSD should recover after idle cooldown")
	}
}

func TestSSDSmallBlocksLessEfficient(t *testing.T) {
	eng, s, _ := testSim(t)
	d := NewSSD(s, DefaultSSDConfig("ssd0", units.TB))
	small := s.NewFlow("small", math.Inf(1))
	d.AttachIO(small, false, 8*units.KB, 1)
	s.Start(&fluid.Transfer{Flow: small, Remaining: math.Inf(1)})
	eng.RunUntil(1)
	s.Sync()
	smallRate := small.Rate()
	if smallRate >= 1.2*units.GBps {
		t.Fatalf("8KB reads at %v should be well below media rate", units.ToGBps(smallRate))
	}
}

func TestHDDSeekBoundSmallBlocks(t *testing.T) {
	eng, s, _ := testSim(t)
	d := NewHDD(s, DefaultHDDConfig("hdd0", 4*units.TB))
	// 64 KB blocks: transfer 0.44 ms vs seek 8 ms → ~5% efficiency.
	f := s.NewFlow("f", math.Inf(1))
	d.AttachIO(f, false, 64*units.KB, 1)
	s.Start(&fluid.Transfer{Flow: f, Remaining: math.Inf(1)})
	eng.RunUntil(1)
	s.Sync()
	got := f.Rate()
	xfer := float64(64*units.KB) / (150 * units.MBps)
	want := 150 * units.MBps * xfer / (xfer + 8e-3)
	if math.Abs(got-want)/want > 0.01 {
		t.Fatalf("64KB HDD rate = %v, want %v", got, want)
	}
	if got > 0.15*150*units.MBps {
		t.Fatalf("small-block HDD rate %v suspiciously high", got)
	}
}

func TestHDDSequentialLargeBlocks(t *testing.T) {
	eng, s, _ := testSim(t)
	d := NewHDD(s, DefaultHDDConfig("hdd0", 4*units.TB))
	f := s.NewFlow("f", math.Inf(1))
	d.AttachIO(f, false, 256*units.MB, 1)
	s.Start(&fluid.Transfer{Flow: f, Remaining: math.Inf(1)})
	eng.RunUntil(1)
	s.Sync()
	if got := f.Rate(); got < 0.99*150*units.MBps*0.995 {
		t.Fatalf("large-block HDD rate = %v, want ≈150 MB/s", units.ToMBps(got))
	}
}

func TestDeviceInterfaceCompliance(t *testing.T) {
	eng, s, m := testSim(t)
	_ = eng
	devices := []Device{
		NewRamdisk(m, "ram", units.GB, m.Node(0)),
		NewSSD(s, DefaultSSDConfig("ssd", units.TB)),
		NewHDD(s, DefaultHDDConfig("hdd", units.TB)),
	}
	for _, d := range devices {
		if d.Name() == "" || d.Size() <= 0 {
			t.Fatalf("device %T metadata broken", d)
		}
		if d.AccessLatency() <= 0 {
			t.Fatalf("device %T has non-positive latency", d)
		}
	}
	if devices[0].MemoryBuffer() == nil {
		t.Fatal("ramdisk must expose a memory buffer")
	}
	if devices[1].MemoryBuffer() != nil || devices[2].MemoryBuffer() != nil {
		t.Fatal("media devices must not expose memory buffers")
	}
}

func TestInvalidConfigsPanic(t *testing.T) {
	eng, s, m := testSim(t)
	_ = eng
	cases := []func(){
		func() { NewRamdisk(m, "bad", 0, m.Node(0)) },
		func() { NewSSD(s, SSDConfig{Name: "bad"}) },
		func() { NewHDD(s, HDDConfig{Name: "bad"}) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestBlockEfficiencyMonotonic(t *testing.T) {
	prev := 0.0
	for _, bs := range []int64{4 * units.KB, 64 * units.KB, units.MB, 4 * units.MB, 16 * units.MB} {
		eff := blockEfficiency(bs, 8*units.KB)
		if eff <= prev {
			t.Fatalf("efficiency not monotonic at %s: %v ≤ %v", units.FormatBytes(bs), eff, prev)
		}
		if eff > 1 {
			t.Fatalf("efficiency > 1 at %s", units.FormatBytes(bs))
		}
		prev = eff
	}
	if blockEfficiency(0, 8*units.KB) != 1 || blockEfficiency(units.MB, 0) != 1 {
		t.Fatal("degenerate inputs should return 1")
	}
}
