package iscsi

import (
	"testing"

	"e2edt/internal/blockdev"
	"e2edt/internal/fluid"
	"e2edt/internal/host"
	"e2edt/internal/numa"
	"e2edt/internal/sim"
	"e2edt/internal/units"
)

// fakeMover is a deterministic in-test data plane: PDUs arrive after a
// fixed latency, data moves at a fixed rate.
type fakeMover struct {
	eng     *sim.Engine
	pduLat  sim.Duration
	byteSec float64 // data rate
	moves   []*Command
}

func (f *fakeMover) SendPDU(size float64, toTarget bool, fn func(sim.Time)) {
	f.eng.Schedule(f.pduLat, func() { fn(f.eng.Now()) })
}

func (f *fakeMover) Move(cmd *Command, lun *LUN, w *Worker, onDone func(sim.Time)) {
	f.moves = append(f.moves, cmd)
	f.eng.Schedule(sim.Duration(float64(cmd.Length)/f.byteSec), func() { onDone(f.eng.Now()) })
}

func (*fakeMover) AttachPath(*fluid.Flow, Op, int, *numa.Buffer, float64) {}

type rig struct {
	eng    *sim.Engine
	s      *fluid.Sim
	h      *host.Host
	target *Target
	mover  *fakeMover
	sess   *Session
	buf    *numa.Buffer
}

func newRig(t *testing.T, cfg TargetConfig, luns int) *rig {
	t.Helper()
	eng := sim.NewEngine()
	s := fluid.NewSim(eng)
	m := numa.MustNew(s, numa.Config{
		Name: "tgt", Nodes: 2, CoresPerNode: 8, CoreHz: 2e9,
		MemBandwidthPerNode:   20 * units.GBps,
		InterconnectBandwidth: 9.5 * units.GBps,
		RemoteAccessPenalty:   1.4, CoherencyWritePenalty: 3,
		MemBytes: 384 * units.GB,
	})
	h := host.New("tgt", m)
	tg := NewTarget("tgt", h, cfg)
	for i := 0; i < luns; i++ {
		tg.AddLUN(i, blockdev.NewRamdisk(m, "lun", 50*units.GB, m.Node(i%2)))
	}
	mv := &fakeMover{eng: eng, pduLat: 50 * sim.Microsecond, byteSec: 5 * units.GBps}
	return &rig{
		eng: eng, s: s, h: h, target: tg, mover: mv,
		sess: NewSession(tg, mv),
		buf:  m.NewBuffer("init", m.Node(0)),
	}
}

func TestSubmitReadCompletes(t *testing.T) {
	r := newRig(t, DefaultTargetConfig(numa.PolicyBind), 2)
	var done sim.Time
	var gotErr error
	r.sess.Submit(&Command{
		Op: OpRead, LUN: 0, Length: 4 * units.MB, Buffer: r.buf,
		OnComplete: func(now sim.Time, err error) { done, gotErr = now, err },
	})
	r.eng.Run()
	if gotErr != nil {
		t.Fatalf("unexpected error: %v", gotErr)
	}
	if done <= 0 {
		t.Fatal("command never completed")
	}
	// Two PDU latencies + device latency + transfer time as lower bound.
	min := 2*50e-6 + float64(4*units.MB)/(5*units.GBps)
	if float64(done) < min {
		t.Fatalf("completed at %v, faster than physically possible (%v)", done, min)
	}
	if r.target.Served != 1 {
		t.Fatalf("Served = %d", r.target.Served)
	}
	if r.sess.Inflight != 0 {
		t.Fatalf("Inflight = %d after completion", r.sess.Inflight)
	}
}

func TestValidationErrors(t *testing.T) {
	r := newRig(t, DefaultTargetConfig(numa.PolicyBind), 1)
	cases := []struct {
		cmd  *Command
		want error
	}{
		{&Command{Op: OpRead, LUN: 9, Length: units.MB, Buffer: r.buf}, ErrNoLUN},
		{&Command{Op: OpRead, LUN: 0, Length: 0, Buffer: r.buf}, ErrZeroLength},
		{&Command{Op: OpRead, LUN: 0, Length: units.MB}, ErrNilBuffer},
		{&Command{Op: OpRead, LUN: 0, Offset: 50 * units.GB, Length: units.MB, Buffer: r.buf}, ErrOutOfRange},
		{&Command{Op: OpRead, LUN: 0, Offset: -1, Length: units.MB, Buffer: r.buf}, ErrOutOfRange},
	}
	for i, c := range cases {
		var got error
		called := false
		c.cmd.OnComplete = func(_ sim.Time, err error) { got, called = err, true }
		r.sess.Submit(c.cmd)
		r.eng.Run()
		if !called {
			t.Fatalf("case %d: OnComplete not called", i)
		}
		if got != c.want {
			t.Fatalf("case %d: err = %v, want %v", i, got, c.want)
		}
	}
	if len(r.mover.moves) != 0 {
		t.Fatal("invalid commands must not reach the data plane")
	}
}

func TestQueueingBeyondWorkers(t *testing.T) {
	cfg := DefaultTargetConfig(numa.PolicyBind)
	cfg.ThreadsPerLUN = 2
	r := newRig(t, cfg, 1)
	const n = 10
	completed := 0
	var last sim.Time
	for i := 0; i < n; i++ {
		r.sess.Submit(&Command{Op: OpWrite, LUN: 0, Length: 8 * units.MB, Buffer: r.buf,
			OnComplete: func(now sim.Time, err error) {
				if err != nil {
					t.Fatalf("err: %v", err)
				}
				completed++
				last = now
			}})
	}
	r.eng.Run()
	if completed != n {
		t.Fatalf("completed %d of %d", completed, n)
	}
	// With 2 workers and a fixed-rate fake mover, 10 commands take at
	// least 5 serial transfer times.
	xfer := float64(8*units.MB) / (5 * units.GBps)
	if float64(last) < 5*xfer {
		t.Fatalf("finished at %v, queueing not enforced (want ≥ %v)", last, 5*xfer)
	}
}

func TestDuplicateLUNPanics(t *testing.T) {
	r := newRig(t, DefaultTargetConfig(numa.PolicyBind), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for duplicate LUN")
		}
	}()
	r.target.AddLUN(0, blockdev.NewRamdisk(r.h.M, "dup", units.GB, r.h.M.Node(0)))
}

func TestBindPolicyPlacesWorkersLocally(t *testing.T) {
	r := newRig(t, DefaultTargetConfig(numa.PolicyBind), 2)
	for _, st := range r.target.luns {
		home := st.lun.Dev.MemoryBuffer().Homes[0]
		for _, w := range st.workers {
			if w.Thread.Node() != home {
				t.Fatalf("worker for LUN on node %d placed on node %v", home.ID, w.Thread.Node())
			}
			if !w.Bounce.Local(home) {
				t.Fatal("bounce buffer not local to worker")
			}
		}
	}
}

func TestDefaultPolicyWorkersUnpinned(t *testing.T) {
	r := newRig(t, DefaultTargetConfig(numa.PolicyDefault), 2)
	for _, st := range r.target.luns {
		for _, w := range st.workers {
			if w.Thread.Node() != nil {
				t.Fatal("default-policy worker should be unpinned")
			}
			if len(w.Bounce.Homes) != 2 {
				t.Fatal("default-policy bounce buffer should be interleaved")
			}
		}
	}
}

func TestContentionMultiplier(t *testing.T) {
	cfg := DefaultTargetConfig(numa.PolicyBind)
	cfg.ThreadsPerLUN = 4
	r := newRig(t, cfg, 2) // 8 workers on 16 cores: no oversubscription
	if got := r.target.ContentionMultiplier(); got != 1 {
		t.Fatalf("multiplier = %v, want 1 (undersubscribed)", got)
	}
	cfg2 := DefaultTargetConfig(numa.PolicyBind)
	cfg2.ThreadsPerLUN = 16
	r2 := newRig(t, cfg2, 2) // 32 workers on 16 cores
	got := r2.target.ContentionMultiplier()
	want := 1 + 0.35*(2-1)
	if got != want {
		t.Fatalf("multiplier = %v, want %v", got, want)
	}
}

func TestLUNsAccessor(t *testing.T) {
	r := newRig(t, DefaultTargetConfig(numa.PolicyBind), 6)
	if got := len(r.target.LUNs()); got != 6 {
		t.Fatalf("LUNs() returned %d, want 6", got)
	}
}

func TestOpString(t *testing.T) {
	if OpRead.String() != "read" || OpWrite.String() != "write" {
		t.Fatal("Op names wrong")
	}
}

func TestCommandTimestamps(t *testing.T) {
	r := newRig(t, DefaultTargetConfig(numa.PolicyBind), 1)
	cmd := &Command{Op: OpRead, LUN: 0, Length: units.MB, Buffer: r.buf,
		OnComplete: func(sim.Time, error) {}}
	r.sess.Submit(cmd)
	r.eng.Run()
	if cmd.Done <= cmd.Issued {
		t.Fatalf("timestamps wrong: issued %v done %v", cmd.Issued, cmd.Done)
	}
}

func TestValidationErrorsKeepInflightBalanced(t *testing.T) {
	r := newRig(t, DefaultTargetConfig(numa.PolicyBind), 1)
	done := 0
	r.sess.Submit(&Command{Op: OpRead, LUN: 9, Length: units.MB, Buffer: r.buf,
		OnComplete: func(sim.Time, error) { done++ }})
	r.eng.Run()
	if done != 1 || r.sess.Inflight != 0 {
		t.Fatalf("done=%d inflight=%d", done, r.sess.Inflight)
	}
}
