package placer

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"e2edt/internal/fluid"
	"e2edt/internal/host"
	"e2edt/internal/numa"
	"e2edt/internal/sim"
	"e2edt/internal/trace"
	"e2edt/internal/units"
)

func testMachineConfig() numa.Config {
	return numa.Config{
		Name:                "m",
		Nodes:               2,
		CoresPerNode:        2,
		CoreHz:              2e9,
		MemBandwidthPerNode: 25 * units.GBps,
		// Narrow interconnect: the remote path (1.5× QPI per byte for a
		// remote DMA write) binds below the local one, so placement
		// genuinely changes the solved rate instead of tying.
		InterconnectBandwidth: 8 * units.GBps,
		RemoteAccessPenalty:   1.4,
		CoherencyWritePenalty: 3.0,
		MemBytes:              128 * units.GB,
	}
}

// rig is one host with a NIC per node and one unbound worker thread whose
// flow reads a buffer and DMAs it out through a configurable NIC. The NIC
// choice makes one node strictly better, which is what the engine must
// discover.
type rig struct {
	eng *sim.Engine
	s   *fluid.Sim
	m   *numa.Machine
	h   *host.Host
	thr *host.Thread
	buf *numa.Buffer
	dev [2]*host.Device
	f   *fluid.Flow
	// via selects the NIC the rebuild closure charges; the test flips it to
	// model a load shift (rail death, route change).
	via int
}

func newRig(t *testing.T) *rig {
	t.Helper()
	r := &rig{eng: sim.NewEngine()}
	r.s = fluid.NewSim(r.eng)
	r.m = numa.MustNew(r.s, testMachineConfig())
	r.h = host.New("h", r.m)
	p := r.h.NewProcess("p", numa.PolicyDefault, nil)
	r.thr = p.NewThread()
	r.buf = r.m.InterleavedBuffer("buf")
	r.dev[0] = r.h.NewDevice("nic0", r.m.Node(0))
	r.dev[1] = r.h.NewDevice("nic1", r.m.Node(1))
	r.f = r.s.NewFlow("payload", math.Inf(1))
	r.rebuild(r.f)
	return r
}

// rebuild is the subsystem-style recharge: CPU kept tiny so the binding
// constraint is the memory/interconnect path, which placement changes.
func (r *rig) rebuild(f *fluid.Flow) {
	r.thr.ChargeCPU(f, 0.1, "proto")
	r.thr.ChargeMemory(f, r.buf, 1, false)
	r.dev[r.via].ChargeDMA(f, r.buf, 1, true)
}

func (r *rig) engine() *Engine {
	e := New(r.s)
	e.AddEntity("worker", r.m, []*host.Thread{r.thr}, []*numa.Buffer{r.buf}, 64*float64(units.MB))
	e.Track(r.f, r.rebuild)
	return e
}

// The initial-placement solver must land the worker local to the NIC its
// flow uses: node 0 keeps DMA and reads on one memory controller, node 1
// pays the interconnect plus the remote-access penalty.
func TestInitialPlacementPicksLocalNode(t *testing.T) {
	r := newRig(t)
	e := r.engine()
	en := e.entities[0]
	r.eng.RunUntil(sim.Time(50 * sim.Millisecond))
	if en.Node() != r.m.Node(0) {
		t.Fatalf("placed on %v, want node 0 (local to nic0)", en.Node())
	}
	if r.thr.Core == nil || r.thr.Core.Node != r.m.Node(0) {
		t.Fatalf("thread not pinned to a node-0 core: %v", r.thr.Core)
	}
	if len(r.buf.Homes) != 1 || r.buf.Homes[0] != r.m.Node(0) {
		t.Fatalf("buffer homes = %v, want [node0]", r.buf.Homes)
	}
	st := e.Stats()
	if st.Placements != 1 || st.Migrations != 0 {
		t.Fatalf("stats = %+v, want exactly one placement, no migrations", st)
	}
	if st.Evals < 2 {
		t.Fatalf("evals = %d, want at least one what-if per candidate node", st.Evals)
	}
}

// Steady load must not flap: once placed, a symmetric-or-better layout
// yields no gain above the hysteresis band, so the migration count stays
// zero no matter how long the loop runs.
func TestHysteresisHoldsPlacementSteady(t *testing.T) {
	r := newRig(t)
	e := r.engine()
	r.eng.RunUntil(sim.Time(1 * sim.Second))
	st := e.Stats()
	if st.Migrations != 0 {
		t.Fatalf("steady load migrated %d times, want 0", st.Migrations)
	}
	if st.Scans < 10 {
		t.Fatalf("scans = %d, loop did not keep running", st.Scans)
	}
	// What-if evaluation must leave no residue: the committed placement is
	// stable across scans.
	core, homes := r.thr.Core, append([]*numa.Node(nil), r.buf.Homes...)
	r.eng.RunUntil(sim.Time(2 * sim.Second))
	if r.thr.Core != core || !reflect.DeepEqual(r.buf.Homes, homes) {
		t.Fatal("placement drifted between scans without a committed move")
	}
}

// When the load shifts (the flow re-routes through the other node's NIC),
// the controller must migrate — but only after the cooldown elapses, and
// the committed move must charge the page-copy through the fluid network.
func TestMigrationAfterLoadShiftRespectsCooldown(t *testing.T) {
	r := newRig(t)
	rec := &trace.Recorder{}
	r.eng.SetTracer(rec)
	e := r.engine()
	en := e.entities[0]
	shiftAt := sim.Time(200 * sim.Millisecond)
	r.eng.At(shiftAt, func() { r.via = 1 })
	r.eng.RunUntil(sim.Time(1 * sim.Second))
	if en.Node() != r.m.Node(1) {
		t.Fatalf("entity on %v after shift, want node 1", en.Node())
	}
	if got := e.Migrations(); got != 1 {
		t.Fatalf("migrations = %d, want exactly 1", got)
	}
	var placeAt, migrateAt, copiedAt sim.Time
	for _, ev := range rec.Events {
		if ev.Subsys != "placer" {
			continue
		}
		switch {
		case strings.HasPrefix(ev.Msg, "place "):
			placeAt = ev.At
		case strings.HasPrefix(ev.Msg, "migrate "):
			migrateAt = ev.At
		case strings.HasPrefix(ev.Msg, "migrated "):
			copiedAt = ev.At
		}
	}
	if migrateAt == 0 || placeAt == 0 {
		t.Fatalf("trace missing place/migrate events: place=%v migrate=%v", placeAt, migrateAt)
	}
	if migrateAt < shiftAt {
		t.Fatalf("migrated at %v, before the load even shifted (%v)", migrateAt, shiftAt)
	}
	if d := migrateAt - placeAt; d < sim.Time(cooldown) {
		t.Fatalf("migrated %v after placement, inside the %v cooldown", d, cooldown)
	}
	if copiedAt <= migrateAt {
		t.Fatalf("page copy finished at %v, not after the move at %v — cost not charged", copiedAt, migrateAt)
	}
}

// A zero-MigrateBytes entity re-homes for free: no page-copy transfer.
func TestZeroMigrateBytesChargesNoCopy(t *testing.T) {
	r := newRig(t)
	rec := &trace.Recorder{}
	r.eng.SetTracer(rec)
	e := New(r.s)
	e.AddEntity("worker", r.m, []*host.Thread{r.thr}, []*numa.Buffer{r.buf}, 0)
	e.Track(r.f, r.rebuild)
	r.eng.At(sim.Time(200*sim.Millisecond), func() { r.via = 1 })
	r.eng.RunUntil(sim.Time(1 * sim.Second))
	if e.Migrations() != 1 {
		t.Fatalf("migrations = %d, want 1", e.Migrations())
	}
	for _, ev := range rec.Events {
		if ev.Subsys == "placer" && strings.HasPrefix(ev.Msg, "migrated ") {
			t.Fatalf("free re-home charged a page copy: %q", ev.Msg)
		}
	}
}

// The loop is one-shot-armed off tracked flows: once the last flow is
// untracked the engine goes dormant and the event queue drains, so
// Engine.Run terminates.
func TestLoopGoesDormantWhenUntracked(t *testing.T) {
	r := newRig(t)
	e := r.engine()
	r.eng.At(sim.Time(100*sim.Millisecond), func() { e.Untrack(r.f) })
	r.eng.Run() // would never return if the scan kept re-arming
	if e.Tracked() != 0 {
		t.Fatalf("tracked = %d, want 0", e.Tracked())
	}
	scans := e.Stats().Scans
	if scans == 0 {
		t.Fatal("loop never ran before going dormant")
	}
}

func TestTrackDuplicatePanics(t *testing.T) {
	r := newRig(t)
	e := r.engine()
	defer func() {
		if recover() == nil {
			t.Fatal("tracking the same flow twice must panic")
		}
	}()
	e.Track(r.f, r.rebuild)
}

func TestUntrackUnknownFlowIsNoOp(t *testing.T) {
	r := newRig(t)
	e := r.engine()
	e.Untrack(r.s.NewFlow("stranger", 1)) // must not panic or disturb state
	if e.Tracked() != 1 {
		t.Fatalf("tracked = %d, want 1", e.Tracked())
	}
}

// Same scenario, same seed, same trace: the engine's decisions are a pure
// function of the discrete-event schedule.
func TestDecisionsReplayBitIdentically(t *testing.T) {
	run := func() []trace.Record {
		r := newRig(t)
		rec := &trace.Recorder{}
		r.eng.SetTracer(rec)
		r.engine()
		r.eng.At(sim.Time(200*sim.Millisecond), func() { r.via = 1 })
		r.eng.RunUntil(sim.Time(1 * sim.Second))
		return rec.Events
	}
	a, b := run(), run()
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("replay diverged: %d vs %d events", len(a), len(b))
	}
}

// A rebuild with placement unchanged reproduces the first build's Uses
// entry for entry, merged duplicates included, even though the flow was
// linked by a solve in between: rebuildAll unlinks before it re-charges,
// so no entry is held back from merging.
func TestRebuildAllReproducesMergedUses(t *testing.T) {
	r := newRig(t)
	twice := func(f *fluid.Flow) {
		r.rebuild(f)
		r.rebuild(f) // every (resource, tag) pair again: all merge
	}
	f := r.s.NewFlow("twice", math.Inf(1))
	twice(f)
	first := append([]fluid.Usage(nil), f.Uses...)
	once := append([]fluid.Usage(nil), r.f.Uses...)
	if len(first) != len(once) {
		t.Fatalf("doubled charges built %d entries, single build %d", len(first), len(once))
	}
	e := New(r.s)
	e.Track(f, twice)
	r.s.Refresh()
	e.rebuildAll()
	if !reflect.DeepEqual(f.Uses, first) {
		t.Fatalf("rebuild changed Uses:\n got %v\nwant %v", f.Uses, first)
	}
}
