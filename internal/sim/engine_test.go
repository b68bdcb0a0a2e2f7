package sim

import (
	"math/rand"
	"testing"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestScheduleAndRunOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(3, func() { order = append(order, 3) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(2, func() { order = append(order, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 3 {
		t.Fatalf("Now() = %v, want 3", e.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(1, func() { order = append(order, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("events at equal time fired out of order: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var hits []Time
	e.Schedule(1, func() {
		hits = append(hits, e.Now())
		e.Schedule(1, func() {
			hits = append(hits, e.Now())
		})
	})
	e.Run()
	if len(hits) != 2 || hits[0] != 1 || hits[1] != 2 {
		t.Fatalf("hits = %v, want [1 2]", hits)
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(1, func() { fired = true })
	e.Cancel(ev)
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Fatal("event not marked cancelled")
	}
	// Cancelling again is a no-op.
	e.Cancel(ev)
	// Cancelling nil is a no-op.
	e.Cancel(nil)
}

func TestCancelOneOfMany(t *testing.T) {
	e := NewEngine()
	var fired []int
	evs := make([]*Event, 5)
	for i := 0; i < 5; i++ {
		i := i
		evs[i] = e.Schedule(Duration(i+1), func() { fired = append(fired, i) })
	}
	e.Cancel(evs[2])
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("fired = %v, want 4 events", fired)
	}
	for _, i := range fired {
		if i == 2 {
			t.Fatal("cancelled event 2 fired")
		}
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, d := range []Duration{1, 2, 3, 4} {
		d := d
		e.Schedule(d, func() { fired = append(fired, e.Now()) })
	}
	e.RunUntil(2.5)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if e.Now() != 2.5 {
		t.Fatalf("Now() = %v, want 2.5 after RunUntil", e.Now())
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("fired %d events total, want 4", len(fired))
	}
}

func TestRunUntilInclusive(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(2, func() { fired = true })
	e.RunUntil(2)
	if !fired {
		t.Fatal("event at exactly t should fire during RunUntil(t)")
	}
}

func TestRunForAdvancesClock(t *testing.T) {
	e := NewEngine()
	e.RunFor(10)
	if e.Now() != 10 {
		t.Fatalf("Now() = %v, want 10", e.Now())
	}
	e.RunFor(5)
	if e.Now() != 15 {
		t.Fatalf("Now() = %v, want 15", e.Now())
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 10; i++ {
		e.Schedule(Duration(i+1), func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Fatalf("count = %d, want 3 (Stop should halt Run)", count)
	}
}

// TestRunUntilAdvancesClockAfterStop: Stop() used to skip RunUntil's final
// clock advance, so a later RunFor(d) started from a stale Now() and ran
// short. The clock must reach the target; events bypassed by the Stop stay
// queued and fire when processing resumes — without moving the clock
// backwards.
func TestRunUntilAdvancesClockAfterStop(t *testing.T) {
	e := NewEngine()
	e.Schedule(3, func() { e.Stop() })
	var lateAt Time = -1
	e.Schedule(5, func() { lateAt = e.Now() })
	e.RunUntil(10)
	if e.Now() != 10 {
		t.Fatalf("Now() = %v after stopped RunUntil(10), want 10", e.Now())
	}
	if lateAt != -1 {
		t.Fatal("event beyond the stop point fired during the stopped run")
	}
	e.RunFor(5)
	if e.Now() != 15 {
		t.Fatalf("Now() = %v after RunFor(5), want 15 (ran short)", e.Now())
	}
	// The bypassed event fired on resume, at the then-current clock.
	if lateAt != 10 {
		t.Fatalf("bypassed event fired at %v, want 10 (clock never rewinds)", lateAt)
	}
}

// TestStopResumeFiresStrandedInOrder: events stranded by a Stop inside
// RunUntil do not hold the clock back, and when processing resumes they all
// fire, in due order, at the resumed clock.
func TestStopResumeFiresStrandedInOrder(t *testing.T) {
	e := NewEngine()
	var fired []Time
	var firedAt []Time
	for _, d := range []Time{9, 5, 4, 12, 8, 6, 11, 7, 10} {
		at := d
		e.At(at, func() {
			fired = append(fired, at)
			firedAt = append(firedAt, e.Now())
		})
	}
	e.At(3.5, func() { e.Stop() })
	e.RunUntil(20) // stops at 3.5; the clock still advances to 20
	if e.Now() != 20 {
		t.Fatalf("Now() = %v after stopped RunUntil(20), want 20", e.Now())
	}
	if len(fired) != 0 {
		t.Fatalf("stranded events fired during the stopped run: %v", fired)
	}
	e.RunFor(10)
	if len(fired) != 9 {
		t.Fatalf("%d of 9 stranded events fired", len(fired))
	}
	for i, at := range fired {
		if at != Time(i+4) || firedAt[i] != 20 {
			t.Fatalf("stranded events fired as %v at %v, want 4..12 all at 20", fired, firedAt)
		}
	}
}

// TestEventRecycling: fired events are reused by later Schedules instead
// of allocating, and the reuse preserves scheduling semantics.
func TestEventRecycling(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, func() {})
	e.Run()
	allocs := testing.AllocsPerRun(100, func() {
		e.Schedule(1, func() {})
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("schedule/fire churn allocates %v objects/op, want 0", allocs)
	}
}

// TestLazyCancelAccounting: cancelled events no longer fire, Pending
// excludes them, and heavy cancel churn compacts the queue.
func TestLazyCancelAccounting(t *testing.T) {
	e := NewEngine()
	keep := 0
	e.Schedule(1000, func() { keep++ })
	for i := 0; i < 500; i++ {
		ev := e.Schedule(Duration(i+1), func() { t.Error("cancelled event fired") })
		e.Cancel(ev)
		if !ev.Cancelled() {
			t.Fatal("cancel not recorded")
		}
	}
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending() = %d with one live event, want 1", got)
	}
	// Compaction must have bounded the heap well below the 501 slots that
	// eager retention would use.
	if len(e.queue) > 130 {
		t.Fatalf("queue holds %d slots after cancel churn, want compacted", len(e.queue))
	}
	e.Run()
	if keep != 1 {
		t.Fatalf("live event fired %d times, want 1", keep)
	}
}

// TestCancelChurnDoesNotAllocate: steady-state schedule+cancel churn (the
// watchdog-reset pattern) reuses cancelled events once compaction has
// recycled them.
func TestCancelChurnDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	// Prime: build up a recycled pool via compaction.
	for i := 0; i < 1000; i++ {
		e.Cancel(e.Schedule(1, func() {}))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.Cancel(e.Schedule(1, func() {}))
	})
	if allocs != 0 {
		t.Fatalf("schedule/cancel churn allocates %v objects/op, want 0", allocs)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative delay")
		}
	}()
	e.Schedule(-1, func() {})
}

func TestScheduleInPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(5, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	e.At(1, func() {})
}

func TestNilCallbackPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil callback")
		}
	}()
	e.Schedule(1, nil)
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	tk := e.NewTicker(1, func(now Time) {
		ticks = append(ticks, now)
	})
	e.RunUntil(5.5)
	tk.Stop()
	e.Run()
	if len(ticks) != 5 {
		t.Fatalf("got %d ticks, want 5: %v", len(ticks), ticks)
	}
	for i, tm := range ticks {
		if tm != Time(i+1) {
			t.Fatalf("tick %d at %v, want %d", i, tm, i+1)
		}
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	e := NewEngine()
	count := 0
	var tk *Ticker
	tk = e.NewTicker(1, func(Time) {
		count++
		if count == 2 {
			tk.Stop()
		}
	})
	e.Run()
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
}

func TestTickerZeroIntervalPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero ticker interval")
		}
	}()
	e.NewTicker(0, func(Time) {})
}

func TestProcessedCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.Schedule(1, func() {})
	}
	e.Run()
	if e.Processed != 7 {
		t.Fatalf("Processed = %d, want 7", e.Processed)
	}
}

func TestEventAccessors(t *testing.T) {
	e := NewEngine()
	ev := e.Schedule(2, func() {})
	if ev.Time() != 2 {
		t.Fatalf("Time() = %v, want 2", ev.Time())
	}
	if ev.Fired() {
		t.Fatal("event reported fired before running")
	}
	e.Run()
	if !ev.Fired() {
		t.Fatal("event not marked fired")
	}
}

func TestTimerFiresOnce(t *testing.T) {
	e := NewEngine()
	var fired []Time
	tm := e.NewTimer(3, func(now Time) { fired = append(fired, now) })
	if !tm.Active() {
		t.Fatal("armed timer not active")
	}
	e.Run()
	if len(fired) != 1 || fired[0] != 3 {
		t.Fatalf("fired = %v, want [3]", fired)
	}
	if tm.Active() {
		t.Fatal("fired timer still active")
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.NewTimer(3, func(Time) { fired = true })
	tm.Stop()
	if tm.Active() {
		t.Fatal("stopped timer still active")
	}
	e.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestTimerResetSupersedes(t *testing.T) {
	e := NewEngine()
	var fired []Time
	tm := e.NewTimer(3, func(now Time) { fired = append(fired, now) })
	e.RunUntil(1)
	tm.Reset(10) // supersedes the pending t=3 firing
	e.Run()
	if len(fired) != 1 || fired[0] != 11 {
		t.Fatalf("fired = %v, want [11]", fired)
	}
}

func TestTimerRearmAfterFiring(t *testing.T) {
	e := NewEngine()
	count := 0
	tm := e.NewTimer(1, func(Time) { count++ })
	e.Run()
	tm.Reset(2)
	e.Run()
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
}

// TestPeriodicLoadAllocFree: periodic load reaches a zero-allocation steady
// state — events recycle through the free list and the heap's backing array
// is reused. The rescheduling closures are built once up front (Ticker
// allocates a fresh closure per arm, so it cannot pin this property).
func TestPeriodicLoadAllocFree(t *testing.T) {
	e := NewEngine()
	fns := make([]func(), 32)
	for i := 0; i < 32; i++ {
		iv := Duration(1 + i%7)
		idx := i
		fns[idx] = func() { e.Schedule(iv, fns[idx]) }
		e.Schedule(iv, fns[idx])
	}
	e.RunFor(100) // warm the free list and the heap array
	avg := testing.AllocsPerRun(50, func() {
		e.RunFor(10)
	})
	if avg != 0 {
		t.Fatalf("periodic steady state allocates %v per RunFor, want 0", avg)
	}
}

// TestCompactFullyCancelledSmallQueue is the regression pin for the
// maybeCompact starvation bug: a queue that is 100% cancelled must be
// reclaimed immediately, however small — the old ≤64-entry threshold left
// it parked forever, so Pending()==0 idle loops spun over dead events and
// the structs never returned to the free list.
func TestCompactFullyCancelledSmallQueue(t *testing.T) {
	e := NewEngine()
	var evs []*Event
	for i := 0; i < 10; i++ {
		evs = append(evs, e.Schedule(Duration(i+1), func() {}))
	}
	for _, ev := range evs {
		e.Cancel(ev)
	}
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending = %d, want 0", got)
	}
	if len(e.queue) != 0 || e.cancelled != 0 {
		t.Fatalf("fully-cancelled queue not compacted: %d slots, %d stale",
			len(e.queue), e.cancelled)
	}
	if len(e.free) < 10 {
		t.Fatalf("only %d events returned to the free list, want 10", len(e.free))
	}
	// And the free list is actually reused: fresh schedules must not grow it.
	before := len(e.free)
	ev := e.Schedule(1, func() {})
	if len(e.free) != before-1 {
		t.Fatal("Schedule did not reuse a recycled event")
	}
	e.Cancel(ev)
}

// TestDrainCompactAfterStop: when a run loop hands control back with the
// queue holding nothing but stale cancellations (the last live event fired
// after the Cancel arrived), the drain sweep must reclaim them even though
// no further Cancel will push the counter over the threshold.
func TestDrainCompactAfterStop(t *testing.T) {
	e := NewEngine()
	d := e.At(4, func() {}) // will be cancelled, never reclaimed by Cancel
	e.At(1, func() { e.Cancel(d) })
	e.At(2, func() {})
	e.At(3, func() { e.Stop() }) // loop exits before peek can prune d
	e.RunUntil(10)
	if e.Now() != 10 {
		t.Fatalf("clock = %v, want 10", e.Now())
	}
	if len(e.queue) != 0 || e.cancelled != 0 {
		t.Fatalf("drain compact missed the stale queue: %d slots, %d stale",
			len(e.queue), e.cancelled)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", e.Pending())
	}
}

// orderQueue is what the order storm drives: the Engine, or refQueue.
type orderQueue interface {
	schedule(at Time, fn func()) (cancel func())
	clock() Time
	run()
}

type engineQueue struct{ *Engine }

func (q engineQueue) schedule(at Time, fn func()) func() {
	ev := q.At(at, fn)
	return func() { q.Cancel(ev) }
}
func (q engineQueue) clock() Time { return q.Now() }
func (q engineQueue) run()        { q.Run() }

// refQueue is the reference order: each step scans every pending event for
// the smallest (time, scheduling sequence).
type refQueue struct {
	now Time
	seq int
	evs []*refEvent
}

type refEvent struct {
	at   Time
	seq  int
	fn   func()
	dead bool
}

func (q *refQueue) schedule(at Time, fn func()) func() {
	q.seq++
	ev := &refEvent{at: at, seq: q.seq, fn: fn}
	q.evs = append(q.evs, ev)
	return func() { ev.dead = true }
}
func (q *refQueue) clock() Time { return q.now }
func (q *refQueue) run() {
	for {
		best := -1
		for i, ev := range q.evs {
			if ev.dead {
				continue
			}
			if best < 0 || ev.at < q.evs[best].at || (ev.at == q.evs[best].at && ev.seq < q.evs[best].seq) {
				best = i
			}
		}
		if best < 0 {
			return
		}
		ev := q.evs[best]
		q.evs = append(q.evs[:best], q.evs[best+1:]...)
		q.now = ev.at
		ev.fn()
	}
}

// stormRun drives q through a seeded schedule/cancel storm and returns the
// exact firing sequence. Both storm halves (initial schedule and in-callback
// reschedule/cancel) draw from one deterministic stream, so two queues fed
// the same seed produce identical logs unless their orders diverge.
func stormRun(q orderQueue, seed int64, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	var log []int
	// live tracks only pending events by id: fired events remove
	// themselves and cancelled ones are removed at cancel time, so the storm
	// never cancels an event the engine has recycled.
	type pend struct {
		id     int
		cancel func()
	}
	var live []pend
	remove := func(id int) {
		for i := range live {
			if live[i].id == id {
				live = append(live[:i], live[i+1:]...)
				return
			}
		}
	}
	id := 0
	var schedule func(at Time)
	schedule = func(at Time) {
		myID := id
		id++
		cancel := q.schedule(at, func() {
			remove(myID)
			log = append(log, myID)
			switch rng.Intn(4) {
			case 0:
				if id < n*4 {
					at := q.clock() + Time(rng.Float64()*40)
					if rng.Intn(2) == 0 { // quantized: exact-tie stress
						at = q.clock() + Time(rng.Intn(160))*0.25
					}
					schedule(at)
				}
			case 1:
				if len(live) > 0 {
					j := rng.Intn(len(live))
					live[j].cancel()
					live = append(live[:j], live[j+1:]...)
				}
			}
		})
		live = append(live, pend{myID, cancel})
	}
	for i := 0; i < n; i++ {
		at := Time(rng.Float64() * 30)
		if rng.Intn(2) == 0 {
			at = Time(rng.Intn(120)) * 0.25
		}
		schedule(at)
	}
	q.run()
	return log
}

// FuzzEngineOrder: under a seeded schedule/cancel storm with exact time
// ties and reschedules from callbacks, the engine fires the same sequence
// as the linear-scan reference queue, and ends at the same clock with
// nothing pending.
func FuzzEngineOrder(f *testing.F) {
	for seed := int64(0); seed < 20; seed++ {
		f.Add(seed, uint8(199))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		e := NewEngine()
		ref := &refQueue{}
		got := stormRun(engineQueue{e}, seed, int(n)+1)
		want := stormRun(ref, seed, int(n)+1)
		if len(got) != len(want) {
			t.Fatalf("engine fired %d events, reference %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("firing order diverged at %d: engine %d, reference %d", i, got[i], want[i])
			}
		}
		if e.Now() != ref.now || e.Pending() != 0 {
			t.Fatalf("clocks %v vs %v, engine pending %d", e.Now(), ref.now, e.Pending())
		}
	})
}
