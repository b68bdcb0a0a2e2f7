package fsim

import (
	"math"
	"testing"

	"e2edt/internal/blockdev"
	"e2edt/internal/fabric"
	"e2edt/internal/fluid"
	"e2edt/internal/host"
	"e2edt/internal/iscsi"
	"e2edt/internal/iser"
	"e2edt/internal/numa"
	"e2edt/internal/sim"
	"e2edt/internal/testbed"
	"e2edt/internal/units"
)

type rig struct {
	eng  *sim.Engine
	s    *fluid.Sim
	init *host.Host
	tgt  *host.Host
	fs   *FS
	proc *host.Process
}

func newRig(t *testing.T, luns int) *rig {
	t.Helper()
	eng := sim.NewEngine()
	s := fluid.NewSim(eng)
	hi := host.New("init", numa.MustNew(s, testbed.FrontEndLAN("init")))
	ht := host.New("tgt", numa.MustNew(s, testbed.BackEndLAN("tgt")))
	var links []*fabric.Link
	for i := 0; i < 2; i++ {
		links = append(links, fabric.Connect(s, testbed.IBFDR56("ib"+string(rune('0'+i))),
			hi, hi.M.Node(i), ht, ht.M.Node(i)))
	}
	tg := iscsi.NewTarget("tgt", ht, iscsi.DefaultTargetConfig(numa.PolicyBind))
	for i := 0; i < luns; i++ {
		tg.AddLUN(i, blockdev.NewRamdisk(ht.M, "lun", 50*units.GB, ht.M.Node(i%2)))
	}
	proc := hi.NewProcess("app", numa.PolicyBind, hi.M.Node(0))
	mv := iser.NewMover(
		[]iser.Portal{iser.PortalFor(links[0], ht), iser.PortalFor(links[1], ht)},
		proc.NewThread(), tg, iser.DefaultParams())
	fs, err := Mount(iscsi.NewSession(tg, mv), hi, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return &rig{eng: eng, s: s, init: hi, tgt: ht, fs: fs, proc: proc}
}

func (r *rig) ioOpts(direct bool) IOOptions {
	return IOOptions{
		Thread: r.proc.NewThread(),
		Buffer: r.init.M.NewBuffer("app", r.init.M.Node(0)),
		Direct: direct,
	}
}

func TestMountValidation(t *testing.T) {
	r := newRig(t, 2)
	if _, err := Mount(r.fs.Sess, r.init, Options{StripeSize: 0}); err == nil {
		t.Fatal("zero stripe should fail")
	}
	if r.fs.LUNCount() != 2 {
		t.Fatalf("LUNCount = %d", r.fs.LUNCount())
	}
	if r.fs.Free() != 100*units.GB {
		t.Fatalf("Free = %d", r.fs.Free())
	}
}

func TestCreateOpenRemove(t *testing.T) {
	r := newRig(t, 2)
	f, err := r.fs.Create("data", 10*units.GB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.fs.Create("data", units.GB); err != ErrExists {
		t.Fatalf("duplicate create: %v", err)
	}
	if _, err := r.fs.Create("huge", 200*units.GB); err != ErrNoSpace {
		t.Fatalf("oversize create: %v", err)
	}
	if _, err := r.fs.Create("neg", 0); err == nil {
		t.Fatal("zero-size create should fail")
	}
	got, err := r.fs.Open("data")
	if err != nil || got != f {
		t.Fatalf("Open: %v", err)
	}
	if _, err := r.fs.Open("missing"); err != ErrNotFound {
		t.Fatalf("Open missing: %v", err)
	}
	if err := r.fs.Remove("data"); err != nil {
		t.Fatal(err)
	}
	if r.fs.Free() != 100*units.GB {
		t.Fatal("Remove did not free space")
	}
	if err := r.fs.Remove("data"); err != ErrNotFound {
		t.Fatalf("double remove: %v", err)
	}
}

func TestReadAtCompletes(t *testing.T) {
	r := newRig(t, 2)
	f, _ := r.fs.Create("data", 10*units.GB)
	var done sim.Time
	f.ReadAt(0, 8*units.MB, r.ioOpts(true), func(now sim.Time, err error) {
		if err != nil {
			t.Fatalf("read failed: %v", err)
		}
		done = now
	})
	r.eng.Run()
	if done <= 0 {
		t.Fatal("read never completed")
	}
}

func TestStripingSpansLUNs(t *testing.T) {
	r := newRig(t, 2)
	f, _ := r.fs.Create("data", 10*units.GB)
	// A 16 MB read with a 4 MB stripe spans both LUNs.
	ok := false
	f.ReadAt(0, 16*units.MB, r.ioOpts(true), func(now sim.Time, err error) {
		if err != nil {
			t.Fatalf("read failed: %v", err)
		}
		ok = true
	})
	r.eng.Run()
	if !ok {
		t.Fatal("striped read incomplete")
	}
	if r.fs.Sess.Target.Served < 4 {
		t.Fatalf("expected ≥4 stripe commands, got %d", r.fs.Sess.Target.Served)
	}
}

func TestIOValidation(t *testing.T) {
	r := newRig(t, 2)
	f, _ := r.fs.Create("data", 10*units.MB)
	var errs []error
	collect := func(_ sim.Time, err error) { errs = append(errs, err) }
	f.ReadAt(0, 20*units.MB, r.ioOpts(true), collect) // beyond EOF
	f.ReadAt(-1, units.MB, r.ioOpts(true), collect)   // negative
	f.ReadAt(0, 0, r.ioOpts(true), collect)           // zero
	f.ReadAt(0, units.MB, IOOptions{}, collect)       // no thread/buffer
	r.eng.Run()
	if len(errs) != 4 {
		t.Fatalf("got %d errors, want 4", len(errs))
	}
	for i, err := range errs {
		if err == nil {
			t.Fatalf("case %d should fail", i)
		}
	}
}

func TestJournalWritesEmitted(t *testing.T) {
	r := newRig(t, 2)
	f, _ := r.fs.Create("data", 10*units.GB)
	o := r.ioOpts(true)
	done := 0
	// 512 MB written with a 256 MB journal interval → ≥2 journal writes.
	for i := 0; i < 128; i++ {
		f.WriteAt(int64(i)*4*units.MB, 4*units.MB, o, func(_ sim.Time, err error) {
			if err != nil {
				t.Fatalf("write failed: %v", err)
			}
			done++
		})
	}
	r.eng.Run()
	if done != 128 {
		t.Fatalf("completed %d writes", done)
	}
	if r.fs.JournalWrites < 2 {
		t.Fatalf("journal writes = %d, want ≥2", r.fs.JournalWrites)
	}
}

func TestSyncFlushesJournal(t *testing.T) {
	r := newRig(t, 2)
	ok := false
	r.fs.Sync(r.ioOpts(true), func(_ sim.Time, err error) {
		if err != nil {
			t.Fatalf("sync failed: %v", err)
		}
		ok = true
	})
	r.eng.Run()
	if !ok {
		t.Fatal("sync incomplete")
	}
}

func TestBufferedSlowerThanDirect(t *testing.T) {
	// Stream 2 GB through one thread, buffered vs direct: buffered pays
	// the page-cache copy and must take longer.
	run := func(direct bool) sim.Time {
		r := newRig(t, 2)
		f, _ := r.fs.Create("data", 10*units.GB)
		o := r.ioOpts(direct)
		var last sim.Time
		var issue func(i int)
		issue = func(i int) {
			if i >= 64 {
				return
			}
			f.ReadAt(int64(i)*32*units.MB, 32*units.MB, o, func(now sim.Time, err error) {
				if err != nil {
					t.Fatalf("read failed: %v", err)
				}
				last = now
				issue(i + 1)
			})
		}
		issue(0)
		r.eng.Run()
		return last
	}
	direct := run(true)
	buffered := run(false)
	if buffered <= direct {
		t.Fatalf("buffered (%v) should be slower than direct (%v)", buffered, direct)
	}
}

func TestAttachStreamChargesSANPath(t *testing.T) {
	r := newRig(t, 2)
	f, _ := r.fs.Create("data", 10*units.GB)
	fl := r.s.NewFlow("stream", math.Inf(1))
	o := r.ioOpts(true)
	if err := f.AttachStream(fl, iscsi.OpRead, o, 1); err != nil {
		t.Fatal(err)
	}
	tr := &fluid.Transfer{Flow: fl, Remaining: math.Inf(1)}
	r.s.Start(tr)
	r.eng.RunUntil(5)
	r.s.Sync()
	g := units.ToGbps(tr.Transferred() / 5)
	// Full SAN streaming read: near the 2×FDR ceiling.
	if g < 80 || g > 112.1 {
		t.Fatalf("stream read = %.1f Gbps, want ≈90–112", g)
	}
	// Target-side CPU was charged.
	if r.tgt.HostCPUReport().ByCategory[host.CatIO] <= 0 {
		t.Fatal("target copy not charged in streaming mode")
	}
}

func TestAttachStreamWriteJournalAmplification(t *testing.T) {
	r := newRig(t, 2)
	f, _ := r.fs.Create("data", 10*units.GB)
	fl := r.s.NewFlow("stream", math.Inf(1))
	if err := f.AttachStream(fl, iscsi.OpWrite, r.ioOpts(true), 1); err != nil {
		t.Fatal(err)
	}
	// Journal amplification adds extra LUN-0 writes: the stream charges
	// more than the same stream with journaling off.
	r.fs.Opt.JournalEveryBytes = 0
	plain := r.s.NewFlow("plain", math.Inf(1))
	if err := f.AttachStream(plain, iscsi.OpWrite, r.ioOpts(true), 1); err != nil {
		t.Fatal(err)
	}
	sum := func(fl *fluid.Flow) (c float64) {
		for _, u := range fl.Uses {
			c += u.Coeff
		}
		return c
	}
	if sum(fl) <= sum(plain) {
		t.Fatalf("journaled stream charges %v, unjournaled %v: amplification missing", sum(fl), sum(plain))
	}
}

func TestAttachStreamValidation(t *testing.T) {
	r := newRig(t, 2)
	f, _ := r.fs.Create("data", units.GB)
	fl := r.s.NewFlow("x", 1)
	if err := f.AttachStream(fl, iscsi.OpRead, IOOptions{}, 1); err == nil {
		t.Fatal("missing thread/buffer should fail")
	}
}

func TestAttachStreamBufferedAddsCopy(t *testing.T) {
	r := newRig(t, 2)
	f, _ := r.fs.Create("data", units.GB)
	direct := r.s.NewFlow("d", math.Inf(1))
	if err := f.AttachStream(direct, iscsi.OpRead, r.ioOpts(true), 1); err != nil {
		t.Fatal(err)
	}
	buffered := r.s.NewFlow("b", math.Inf(1))
	if err := f.AttachStream(buffered, iscsi.OpRead, r.ioOpts(false), 1); err != nil {
		t.Fatal(err)
	}
	if len(buffered.Uses) <= len(direct.Uses) {
		t.Fatal("buffered stream should carry extra page-cache charges")
	}
}
