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
	if r.fs.LUNCount() != 2 {
		t.Fatalf("LUNCount = %d", r.fs.LUNCount())
	}
	if r.fs.Free() != 100*units.GB {
		t.Fatalf("Free = %d", r.fs.Free())
	}
}

func TestCreateOpenRemove(t *testing.T) {
	r := newRig(t, 2)
	if _, err := r.fs.Create("data", 10*units.GB); err != nil {
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
	// The stream spreads over every LUN: each LUN's worker pool has a
	// core charged on the flow.
	for _, l := range r.fs.Sess.Target.LUNs() {
		if !chargesCore(fl, r.fs.Sess.Target.Workers(l.ID)) {
			t.Fatalf("stream charges no worker core of LUN %d", l.ID)
		}
	}
}

// chargesCore reports whether fl uses the core of any of the workers.
func chargesCore(fl *fluid.Flow, workers []*iscsi.Worker) bool {
	for _, w := range workers {
		for _, u := range fl.Uses {
			if w.Thread.Core != nil && u.Resource == w.Thread.Core.Res {
				return true
			}
		}
	}
	return false
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
