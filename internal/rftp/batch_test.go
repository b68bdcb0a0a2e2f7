package rftp

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"e2edt/internal/pipe"
	"e2edt/internal/sim"
	"e2edt/internal/testbed"
	"e2edt/internal/trace"
	"e2edt/internal/units"
)

// smallObjects builds n objects of size bytes each.
func smallObjects(n int, size int64) []ObjectSpec {
	objs := make([]ObjectSpec, n)
	for i := range objs {
		objs[i] = ObjectSpec{Key: fmt.Sprintf("b/obj-%04d", i), Size: size}
	}
	return objs
}

func TestBatchValidation(t *testing.T) {
	p := testbed.NewMotivatingPair()
	if _, err := StartBatch(nil, p.A, DefaultConfig(), DefaultParams(),
		pipe.Zero{}, pipe.Null{}, smallObjects(1, 1), nil, nil); err == nil {
		t.Error("no links should fail")
	}
	if _, err := StartBatch(p.Links, p.A, DefaultConfig(), DefaultParams(),
		pipe.Zero{}, pipe.Null{}, nil, nil, nil); err == nil {
		t.Error("empty window should fail")
	}
	if _, err := StartBatch(p.Links, p.A, DefaultConfig(), DefaultParams(),
		pipe.Zero{}, pipe.Null{}, []ObjectSpec{{Key: "b/k", Size: -1}}, nil, nil); err == nil {
		t.Error("negative object size should fail")
	}
}

// TestBatchDeliversAllExactlyOnce: every object in the window completes,
// each index exactly once, and the window's OnComplete fires once.
func TestBatchDeliversAllExactlyOnce(t *testing.T) {
	p := testbed.NewMotivatingPair()
	objs := smallObjects(200, 24<<10)
	counts := make([]int, len(objs))
	windowDone := 0
	tr, err := StartBatch(p.Links, p.A, DefaultConfig(), DefaultParams(),
		pipe.Zero{}, pipe.Null{}, objs,
		func(i int, now sim.Time) { counts[i]++ },
		func(now sim.Time) { windowDone++ })
	if err != nil {
		t.Fatal(err)
	}
	p.Eng.Run()
	if tr.Delivered() != len(objs) {
		t.Fatalf("delivered %d of %d", tr.Delivered(), len(objs))
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("object %d delivered %d times", i, c)
		}
	}
	if windowDone != 1 {
		t.Fatalf("OnComplete fired %d times", windowDone)
	}
	if tr.Finished() <= 0 {
		t.Fatal("no finish time recorded")
	}
}

// TestBatchZeroSizeObjects: empty objects ride the stream as bare
// delimiter records and complete like any other — including a window made
// entirely of empty objects.
func TestBatchZeroSizeObjects(t *testing.T) {
	p := testbed.NewMotivatingPair()
	objs := smallObjects(50, 16<<10)
	for i := 0; i < len(objs); i += 5 {
		objs[i].Size = 0
	}
	counts := make([]int, len(objs))
	tr, err := StartBatch(p.Links, p.A, DefaultConfig(), DefaultParams(),
		pipe.Zero{}, pipe.Null{}, objs,
		func(i int, now sim.Time) { counts[i]++ }, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Eng.Run()
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("object %d delivered %d times", i, c)
		}
	}
	if tr.Delivered() != len(objs) {
		t.Fatalf("delivered %d of %d", tr.Delivered(), len(objs))
	}

	// All-empty window.
	p2 := testbed.NewMotivatingPair()
	empty := smallObjects(10, 0)
	tr2, err := StartBatch(p2.Links, p2.A, DefaultConfig(), DefaultParams(),
		pipe.Zero{}, pipe.Null{}, empty, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	p2.Eng.Run()
	if tr2.Delivered() != len(empty) {
		t.Fatalf("all-empty window delivered %d of %d", tr2.Delivered(), len(empty))
	}
	if tr2.Finished() <= 0 {
		t.Fatal("all-empty window never finished")
	}
}

// TestBatchStop: a stopped window fires no further callbacks and keeps
// only fully delivered objects' bytes.
func TestBatchStop(t *testing.T) {
	p := testbed.NewMotivatingPair()
	objs := smallObjects(100, units.MB)
	delivered := 0
	tr, err := StartBatch(p.Links, p.A, DefaultConfig(), DefaultParams(),
		pipe.Zero{}, pipe.Null{}, objs,
		func(i int, now sim.Time) { delivered++ }, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Eng.RunFor(3 * sim.Millisecond)
	tr.Stop()
	mid := tr.Delivered()
	if mid == 0 || mid == len(objs) {
		t.Fatalf("want a partial window at stop, got %d of %d", mid, len(objs))
	}
	p.Eng.Run()
	if tr.Delivered() != mid || delivered != mid {
		t.Fatalf("deliveries after Stop: %d → %d (callbacks %d)", mid, tr.Delivered(), delivered)
	}
	if got, want := tr.Transferred(), float64(mid)*float64(units.MB); got != want {
		t.Fatalf("Transferred after Stop = %.0f, want %.0f (completed objects only)", got, want)
	}
}

// TestBatchBeatsPerObjectSessions is the protocol-level coalescing claim:
// moving N small objects as one batch window is far faster than paying a
// session handshake per object (batch windows of size 1).
func TestBatchBeatsPerObjectSessions(t *testing.T) {
	const n, size = 256, 24 << 10

	// Coalesced: one window.
	p := testbed.NewMotivatingPair()
	tr, err := StartBatch(p.Links, p.A, DefaultConfig(), DefaultParams(),
		pipe.Zero{}, pipe.Null{}, smallObjects(n, size), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Eng.Run()
	coalesced := float64(tr.Finished())

	// Per-object: a new session (handshake and all) for every object.
	p2 := testbed.NewMotivatingPair()
	objs := smallObjects(n, size)
	var last sim.Time
	var startNext func(i int)
	startNext = func(i int) {
		if i >= len(objs) {
			return
		}
		_, err := StartBatch(p2.Links, p2.A, DefaultConfig(), DefaultParams(),
			pipe.Zero{}, pipe.Null{}, objs[i:i+1], nil,
			func(now sim.Time) { last = now; startNext(i + 1) })
		if err != nil {
			t.Error(err)
		}
	}
	startNext(0)
	p2.Eng.Run()
	perObject := float64(last)

	if coalesced <= 0 || perObject <= 0 {
		t.Fatalf("missing finish times: coalesced=%v perObject=%v", coalesced, perObject)
	}
	if perObject < 5*coalesced {
		t.Fatalf("coalescing gain %.1f× < 5× (coalesced %.4fs, per-object %.4fs)",
			perObject/coalesced, coalesced, perObject)
	}
}

// TestBatchStopCancelsInStreamOrder: stopping a three-stream object window
// with a body in flight on every stream cancels them in stream order, the
// same on every run, so the trace of a stopped window replays bit for bit.
func TestBatchStopCancelsInStreamOrder(t *testing.T) {
	want := []string{"rftp-obj/b/obj-0000", "rftp-obj/b/obj-0001", "rftp-obj/b/obj-0002"}
	for run := 0; run < 20; run++ {
		p := testbed.NewMotivatingPair()
		rec := &trace.Recorder{}
		p.Eng.SetTracer(rec)
		cfg := DefaultConfig()
		cfg.Streams = 3
		tr, err := StartBatch(p.Links, p.A, cfg, DefaultParams(),
			pipe.Zero{}, pipe.Null{}, smallObjects(6, 64*units.MB), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		p.Eng.RunFor(5 * sim.Millisecond)
		if tr.Delivered() != 0 {
			t.Fatalf("run %d: %d objects delivered before Stop, want all three bodies in flight", run, tr.Delivered())
		}
		tr.Stop()
		var got []string
		for _, ev := range rec.Events {
			if ev.Subsys == "fluid" && strings.HasPrefix(ev.Msg, "cancel ") {
				got = append(got, strings.Fields(ev.Msg)[1])
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: cancelled %v, want %v", run, got, want)
		}
	}
}
