// Package sim provides a deterministic discrete-event simulation engine.
//
// All simulated subsystems in this repository (NUMA memory controllers,
// RDMA fabrics, TCP stacks, storage devices) share one Engine instance. The
// engine maintains a virtual clock measured in seconds and an event queue
// ordered by (time, sequence). Events scheduled for the same instant fire in
// the order they were scheduled, which makes every simulation run fully
// reproducible.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in seconds since the start of the
// simulation.
type Time float64

// Duration is a span of virtual time in seconds.
type Duration float64

const (
	// Forever is a time later than any event the engine will ever fire.
	Forever Time = math.MaxFloat64
	// Microsecond, Millisecond and Second express durations in seconds.
	Microsecond Duration = 1e-6
	Millisecond Duration = 1e-3
	Second      Duration = 1
	Minute      Duration = 60
)

// Event is a scheduled callback. The zero Event is invalid; events are
// created through Engine.Schedule and Engine.At.
//
// Fired and cancelled events are recycled: once an event has fired (or its
// cancellation has been observed by the engine), the *Event may be reused
// by a later Schedule. Callers that retain an event pointer must drop it
// when the event fires and after calling Cancel, and must not Cancel a
// pointer obtained from an earlier, already-fired scheduling.
type Event struct {
	at     Time
	seq    uint64
	fn     func()
	fired  bool
	cancel bool
}

// Time reports when the event is (or was) due to fire.
func (e *Event) Time() Time { return e.at }

// Cancelled reports whether Cancel was called before the event fired.
func (e *Event) Cancelled() bool { return e.cancel }

// Fired reports whether the event's callback has run.
func (e *Event) Fired() bool { return e.fired }

// eventHeap is a binary min-heap ordered by (at, seq). Its methods compare
// events directly instead of going through container/heap's interface, so
// the per-event push and pop cost no dynamic dispatch or boxing.
type eventHeap []*Event

// before orders events by time, then by scheduling sequence.
func before(a, b *Event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// up moves h[j] toward the root until its parent is not later.
func (h eventHeap) up(j int) {
	ev := h[j]
	for j > 0 {
		i := (j - 1) / 2
		p := h[i]
		if !before(ev, p) {
			break
		}
		h[j] = p
		j = i
	}
	h[j] = ev
}

// down moves h[i] toward the leaves until no child is earlier.
func (h eventHeap) down(i int) {
	ev, n := h[i], len(h)
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		c := h[j]
		if r := j + 1; r < n && before(h[r], c) {
			j, c = r, h[r]
		}
		if !before(c, ev) {
			break
		}
		h[i] = c
		i = j
	}
	h[i] = ev
}

// push adds ev to the heap.
func (h *eventHeap) push(ev *Event) {
	*h = append(*h, ev)
	h.up(len(*h) - 1)
}

// pop removes and returns the earliest event.
func (h *eventHeap) pop() *Event {
	old := *h
	n := len(old) - 1
	ev, last := old[0], old[n]
	old[n] = nil
	*h = old[:n]
	if n > 0 {
		old[0] = last
		h.down(0)
	}
	return ev
}

// heapify restores the heap order over arbitrary contents.
func (h eventHeap) heapify() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// Tracer receives simulation trace events when installed on an engine.
// Implementations live in the trace package; the interface sits here so
// every subsystem can emit through the engine it already holds.
type Tracer interface {
	// Event is called with the current virtual time, the emitting
	// subsystem ("fluid", "iscsi", "rftp", ...) and a formatted message.
	Event(now Time, subsys, msg string)
}

// Engine is a discrete-event simulator. It is not safe for concurrent use;
// a simulation is a single-threaded computation over virtual time.
type Engine struct {
	now     Time
	seq     uint64
	queue   eventHeap
	stopped bool
	tracer  Tracer
	// Processed counts events that have fired, for diagnostics.
	Processed uint64

	// free holds fired/cancelled events for reuse, so steady-state
	// Schedule/Cancel churn (credit loops, watchdog resets) does not
	// allocate. Bounded by the peak number of live events.
	free []*Event
	// cancelled counts lazily-cancelled events still occupying queue
	// slots; Cancel marks instead of removing, and the queue is compacted
	// once cancelled events dominate it.
	cancelled int
}

// NewEngine returns an engine with the clock at zero and an empty queue.
func NewEngine() *Engine {
	return &Engine{}
}

// alloc returns a recycled Event when one is available.
func (e *Engine) alloc(at Time, fn func()) *Event {
	e.seq++
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		*ev = Event{at: at, seq: e.seq, fn: fn}
		return ev
	}
	return &Event{at: at, seq: e.seq, fn: fn}
}

// recycle returns an event the engine is done with to the free list. The
// fired/cancel flags survive until reuse so stale accessors stay truthful.
func (e *Engine) recycle(ev *Event) {
	ev.fn = nil // release the closure and anything it captured
	e.free = append(e.free, ev)
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// SetTracer installs (or, with nil, removes) a trace sink.
func (e *Engine) SetTracer(t Tracer) { e.tracer = t }

// Tracing reports whether a tracer is installed, so callers can skip
// building expensive messages.
func (e *Engine) Tracing() bool { return e.tracer != nil }

// Tracef emits a formatted trace event when a tracer is installed.
func (e *Engine) Tracef(subsys, format string, args ...any) {
	if e.tracer == nil {
		return
	}
	e.tracer.Event(e.now, subsys, fmt.Sprintf(format, args...))
}

// Pending returns the number of events still queued (excluding
// lazily-cancelled ones awaiting compaction).
func (e *Engine) Pending() int { return len(e.queue) - e.cancelled }

// fire runs a popped event's callback, advancing the clock to its time.
func (e *Engine) fire(ev *Event) {
	if ev.at > e.now {
		e.now = ev.at
	}
	ev.fired = true
	e.Processed++
	ev.fn()
	// Recycle only after the callback returns: while it runs, the fired
	// flag keeps a self-Cancel harmless, and no new Schedule can reuse the
	// struct out from under a holder.
	e.recycle(ev)
}

// Schedule queues fn to run after delay. A negative delay is an error in the
// caller; Schedule panics to surface the bug immediately.
func (e *Engine) Schedule(delay Duration, fn func()) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return e.At(e.now+Time(delay), fn)
}

// At queues fn to run at absolute virtual time t. Scheduling in the past
// panics: it indicates a causality bug in the calling model.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: nil event callback")
	}
	ev := e.alloc(t, fn)
	e.queue.push(ev)
	return ev
}

// Cancel removes ev from the queue if it has not fired. Cancelling an
// already-fired or already-cancelled event is a no-op. The cancellation is
// lazy: the event keeps its heap slot until the engine reaches it (or a
// compaction sweep reclaims it), making Cancel O(1) instead of O(log n).
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.fired || ev.cancel {
		return
	}
	ev.cancel = true
	e.cancelled++
	e.maybeCompact()
}

// maybeCompact rebuilds the heap without cancelled events once they hold
// the majority of its slots — or all of them, however few: a queue that is
// 100% cancelled is dead weight whatever its size, and leaving it uncompacted
// would let Pending()==0 idle loops spin over it forever. Bounds queue
// growth under heavy schedule/cancel churn (watchdog resets, credit-loop
// timers).
func (e *Engine) maybeCompact() {
	if e.cancelled == 0 {
		return
	}
	if e.cancelled < len(e.queue) && (e.cancelled <= 64 || e.cancelled*2 <= len(e.queue)) {
		return
	}
	kept := e.queue[:0]
	for _, ev := range e.queue {
		if ev.cancel {
			e.recycle(ev)
		} else {
			kept = append(kept, ev)
		}
	}
	for i := len(kept); i < len(e.queue); i++ {
		e.queue[i] = nil
	}
	e.queue = kept
	e.queue.heapify()
	e.cancelled = 0
}

// peek returns the earliest live event without removing it, first
// reclaiming cancelled events that have reached the top of the heap.
func (e *Engine) peek() *Event {
	for len(e.queue) > 0 && e.queue[0].cancel {
		e.recycle(e.queue.pop())
		e.cancelled--
	}
	if len(e.queue) == 0 {
		return nil
	}
	return e.queue[0]
}

// Step fires the earliest pending event and advances the clock to its time.
// It reports false when nothing is pending. An event left behind by a stopped RunUntil (see Stop) can be
// due in the past; the clock never moves backwards — such events fire at
// the current time.
func (e *Engine) Step() bool {
	ev := e.peek()
	if ev == nil {
		return false
	}
	e.queue.pop()
	e.fire(ev)
	return true
}

// Run processes events until the queue is empty.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
	e.drainCompact()
}

// RunUntil processes events with time ≤ t, then advances the clock to t.
// Events scheduled exactly at t do fire. The final clock advance happens
// even when Stop() halted processing mid-run, so a subsequent RunFor(d)
// always covers [t, t+d] — events bypassed by the Stop stay queued and
// fire (at the then-current clock) when processing resumes.
func (e *Engine) RunUntil(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: RunUntil(%v) before now %v", t, e.now))
	}
	e.stopped = false
	for !e.stopped {
		ev := e.peek()
		if ev == nil || ev.at > t {
			break
		}
		e.queue.pop()
		e.fire(ev)
	}
	if t > e.now {
		e.now = t
	}
	e.drainCompact()
}

// drainCompact reclaims a queue that drained down to nothing but stale
// cancellations when a run loop hands control back, so the event structs
// return to the free list even though no further Cancel will arrive to
// trigger the threshold sweep.
func (e *Engine) drainCompact() {
	if e.cancelled > 0 && e.cancelled == len(e.queue) {
		e.maybeCompact()
	}
}

// RunFor processes events within the next d seconds of virtual time.
func (e *Engine) RunFor(d Duration) {
	e.RunUntil(e.now + Time(d))
}

// Stop halts Run/RunUntil after the current event returns. It stops event
// processing only: a surrounding RunUntil/RunFor still advances the clock
// to its target time, so post-stop Now() is never stale.
func (e *Engine) Stop() { e.stopped = true }

// Ticker runs a periodic activity: it reschedules fn every interval until
// Stop is called.
type Ticker struct {
	engine   *Engine
	interval Duration
	fn       func(Time)
	ev       *Event
	stopped  bool
}

// NewTicker schedules fn to run every interval, first at now+interval.
func (e *Engine) NewTicker(interval Duration, fn func(Time)) *Ticker {
	if interval <= 0 {
		panic("sim: ticker interval must be positive")
	}
	t := &Ticker{engine: e, interval: interval, fn: fn}
	t.arm()
	return t
}

func (t *Ticker) arm() {
	t.ev = t.engine.Schedule(t.interval, func() {
		// Drop the reference first: the fired event will be recycled, and
		// a later Stop must not cancel whatever reuses it.
		t.ev = nil
		if t.stopped {
			return
		}
		t.fn(t.engine.Now())
		if !t.stopped {
			t.arm()
		}
	})
}

// Stop prevents any further ticks.
func (t *Ticker) Stop() {
	t.stopped = true
	t.engine.Cancel(t.ev)
	t.ev = nil
}

// Timer is a one-shot virtual-time timer that can be cancelled or re-armed,
// for retry backoff and watchdog deadlines: unlike a raw Event, resetting a
// Timer supersedes its pending firing instead of stacking a second one.
type Timer struct {
	engine *Engine
	fn     func(Time)
	ev     *Event
}

// NewTimer schedules fn to run once after d. Reset re-arms it; Stop cancels
// a pending firing.
func (e *Engine) NewTimer(d Duration, fn func(Time)) *Timer {
	if fn == nil {
		panic("sim: nil timer callback")
	}
	t := &Timer{engine: e, fn: fn}
	t.Reset(d)
	return t
}

// Reset cancels any pending firing and re-arms the timer for now+d.
func (t *Timer) Reset(d Duration) {
	t.engine.Cancel(t.ev)
	t.ev = t.engine.Schedule(d, func() {
		t.ev = nil // the fired event is recycled; never cancel it later
		t.fn(t.engine.Now())
	})
}

// Stop cancels the pending firing, if any. The timer can be re-armed with
// Reset afterwards.
func (t *Timer) Stop() {
	t.engine.Cancel(t.ev)
	t.ev = nil
}

// Active reports whether a firing is pending.
func (t *Timer) Active() bool {
	return t.ev != nil && !t.ev.Fired() && !t.ev.Cancelled()
}
