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
	"container/heap"
	"fmt"
	"math"
	"math/bits"
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
	index  int // heap index; -1 once removed, -2 while parked in the wheel
	fired  bool
	cancel bool
}

// wheelIndex marks an event stored in a timer-wheel slot instead of the heap.
const wheelIndex = -2

// Time reports when the event is (or was) due to fire.
func (e *Event) Time() Time { return e.at }

// Cancelled reports whether Cancel was called before the event fired.
func (e *Event) Cancelled() bool { return e.cancel }

// Fired reports whether the event's callback has run.
func (e *Event) Fired() bool { return e.fired }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
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
	running bool
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

	// Timer wheel (EnableTimerWheel): near-future events — heartbeat,
	// probe and sampler ticks at cluster scale — go into fixed-width ring
	// slots with O(1) insert and cancel; the heap keeps only events beyond
	// the wheel horizon. Slot wheelCur covers [wheelBase, wheelBase+slotW).
	wheel         []wheelSlot
	slotW         Duration
	wheelBase     Time
	wheelCur      int
	wheelLive     int      // parked events that are not cancelled
	wheelCount    int      // parked events including stale cancellations
	occ           []uint64 // per-slot occupancy bitmap, for sparse scans
	wheelPeekSlot int      // slot of the event the last peek returned
}

// wheelSlot is one ring bucket. evs[head:] holds the undrained events; the
// live region is sorted by (at, seq) lazily, on first read, so inserts stay
// O(1). The backing array is reused after the slot drains.
type wheelSlot struct {
	evs    []*Event
	head   int
	sorted bool
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
func (e *Engine) Pending() int { return len(e.queue) - e.cancelled + e.wheelLive }

// EnableTimerWheel routes events due within slot×slots of the current time
// into a timer wheel (O(1) insert and cancel) instead of the heap, which
// keeps only sparse far-future events. Firing order is unchanged: the wheel
// and heap are merged by (time, sequence) on every pop, so an enabled wheel
// is observationally identical to the plain heap. Once a wheel is
// installed, further calls are no-ops.
func (e *Engine) EnableTimerWheel(slot Duration, slots int) {
	if e.wheel != nil {
		return
	}
	if slot <= 0 || slots < 2 {
		panic(fmt.Sprintf("sim: invalid timer wheel geometry %v × %d", slot, slots))
	}
	e.wheel = make([]wheelSlot, slots)
	e.occ = make([]uint64, (slots+63)/64)
	e.slotW = slot
	e.wheelBase = e.now
	e.wheelCur = 0
}

// WheelEnabled reports whether a timer wheel is installed.
func (e *Engine) WheelEnabled() bool { return e.wheel != nil }

// advanceWheel rotates the wheel so the current slot's window contains the
// clock. Passed slots are flushed: live events left behind by a Stop spill
// to the heap (they fire at the then-current clock, preserving the RunUntil
// contract), stale cancellations are reclaimed.
func (e *Engine) advanceWheel() {
	W := Time(e.slotW)
	n := len(e.wheel)
	if e.wheelCount == 0 {
		// Empty wheel: snap the window to the clock in O(1), so a far
		// jump in virtual time never walks slot by slot.
		if e.now-e.wheelBase >= W {
			e.wheelBase = e.now
		}
		return
	}
	if e.now-e.wheelBase >= W*Time(n) {
		// The whole horizon is in the past; one sweep bounds the work.
		for si := range e.wheel {
			e.flushSlot(si)
		}
		e.wheelBase = e.now
		return
	}
	for e.wheelBase+W <= e.now {
		e.flushSlot(e.wheelCur)
		e.wheelCur++
		if e.wheelCur == n {
			e.wheelCur = 0
		}
		e.wheelBase += W
		if e.wheelCount == 0 {
			if e.now-e.wheelBase >= W {
				e.wheelBase = e.now
			}
			return
		}
	}
}

// flushSlot empties a slot whose window has passed.
func (e *Engine) flushSlot(si int) {
	s := &e.wheel[si]
	for j := s.head; j < len(s.evs); j++ {
		ev := s.evs[j]
		s.evs[j] = nil
		e.wheelCount--
		if ev.cancel {
			ev.index = -1
			e.recycle(ev)
			continue
		}
		e.wheelLive--
		heap.Push(&e.queue, ev)
	}
	s.evs = s.evs[:0]
	s.head = 0
	s.sorted = true
	e.occ[si>>6] &^= 1 << (uint(si) & 63)
}

// nextOccupied returns the first slot index in [lo, hi) with its occupancy
// bit set, or -1. Word-at-a-time, so sparse wheels scan fast.
func (e *Engine) nextOccupied(lo, hi int) int {
	if lo >= hi {
		return -1
	}
	for w := lo >> 6; w<<6 < hi; w++ {
		word := e.occ[w]
		if base := w << 6; base < lo {
			word &= ^uint64(0) << (uint(lo - base))
		}
		if word == 0 {
			continue
		}
		i := w<<6 + bits.TrailingZeros64(word)
		if i >= hi {
			return -1
		}
		return i
	}
	return -1
}

// sortSlot orders the live region by (at, seq). Insertion sort: slots hold
// a handful of events and the sort must not allocate.
func sortSlot(s *wheelSlot) {
	evs := s.evs[s.head:]
	for i := 1; i < len(evs); i++ {
		ev := evs[i]
		j := i
		for j > 0 && (evs[j-1].at > ev.at || (evs[j-1].at == ev.at && evs[j-1].seq > ev.seq)) {
			evs[j] = evs[j-1]
			j--
		}
		evs[j] = ev
	}
	s.sorted = true
}

// slotHead returns the earliest live event in slot si, reclaiming stale
// cancellations in passing; nil once the slot drains (its bit is cleared).
func (e *Engine) slotHead(si int) *Event {
	s := &e.wheel[si]
	for s.head < len(s.evs) {
		if !s.sorted {
			sortSlot(s)
		}
		ev := s.evs[s.head]
		if !ev.cancel {
			return ev
		}
		s.evs[s.head] = nil
		s.head++
		e.wheelCount--
		ev.index = -1
		e.recycle(ev)
	}
	s.evs = s.evs[:0]
	s.head = 0
	s.sorted = true
	e.occ[si>>6] &^= 1 << (uint(si) & 63)
	return nil
}

// peekWheel returns the earliest live wheel event, or nil. Scanning slots
// outward from wheelCur visits them in window (time) order, so the first
// live head is the wheel's minimum.
func (e *Engine) peekWheel() *Event {
	if e.wheel == nil || e.wheelLive == 0 {
		return nil
	}
	e.advanceWheel()
	if e.wheelLive == 0 {
		return nil
	}
	n := len(e.wheel)
	for pass := 0; pass < 2; pass++ {
		lo, hi := e.wheelCur, n
		if pass == 1 {
			lo, hi = 0, e.wheelCur
		}
		for si := e.nextOccupied(lo, hi); si >= 0; si = e.nextOccupied(si+1, hi) {
			if ev := e.slotHead(si); ev != nil {
				e.wheelPeekSlot = si
				return ev
			}
		}
	}
	return nil
}

// peek returns the earliest live event across the heap and the wheel
// without removing it, pruning cancelled entries from both structures.
func (e *Engine) peek() *Event {
	for len(e.queue) > 0 && e.queue[0].cancel {
		ev := heap.Pop(&e.queue).(*Event)
		e.cancelled--
		e.recycle(ev)
	}
	var hv *Event
	if len(e.queue) > 0 {
		hv = e.queue[0]
	}
	wv := e.peekWheel()
	if wv == nil {
		return hv
	}
	if hv == nil {
		return wv
	}
	if wv.at < hv.at || (wv.at == hv.at && wv.seq < hv.seq) {
		return wv
	}
	return hv
}

// take removes the event peek just returned from its structure.
func (e *Engine) take(ev *Event) {
	if ev.index == wheelIndex {
		si := e.wheelPeekSlot
		s := &e.wheel[si]
		if s.head >= len(s.evs) || s.evs[s.head] != ev {
			panic("sim: timer wheel out of sync")
		}
		s.evs[s.head] = nil
		s.head++
		e.wheelCount--
		e.wheelLive--
		ev.index = -1
		if s.head == len(s.evs) {
			s.evs = s.evs[:0]
			s.head = 0
			s.sorted = true
			e.occ[si>>6] &^= 1 << (uint(si) & 63)
		}
		return
	}
	heap.Pop(&e.queue)
}

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
	if e.wheel != nil {
		e.advanceWheel()
		if off := t - e.wheelBase; off < Time(e.slotW)*Time(len(e.wheel)) {
			idx := int(off / Time(e.slotW))
			if idx < len(e.wheel) { // guard against float rounding at the horizon
				si := e.wheelCur + idx
				if n := len(e.wheel); si >= n {
					si -= n
				}
				s := &e.wheel[si]
				s.evs = append(s.evs, ev)
				s.sorted = len(s.evs)-s.head <= 1
				e.occ[si>>6] |= 1 << (uint(si) & 63)
				ev.index = wheelIndex
				e.wheelLive++
				e.wheelCount++
				return ev
			}
		}
	}
	heap.Push(&e.queue, ev)
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
	if ev.index == wheelIndex {
		e.wheelLive-- // lazy: the slot entry is reclaimed when scanned over
		return
	}
	if ev.index < 0 {
		return
	}
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
			ev.index = -1
			e.recycle(ev)
		} else {
			kept = append(kept, ev)
		}
	}
	for i := len(kept); i < len(e.queue); i++ {
		e.queue[i] = nil
	}
	e.queue = kept
	for i, ev := range e.queue {
		ev.index = i
	}
	heap.Init(&e.queue)
	e.cancelled = 0
}

// Step fires the earliest pending event — across the heap and the timer
// wheel — and advances the clock to its time. It reports false when nothing
// is pending. An event left behind by a stopped RunUntil (see Stop) can be
// due in the past; the clock never moves backwards — such events fire at
// the current time.
func (e *Engine) Step() bool {
	ev := e.peek()
	if ev == nil {
		return false
	}
	e.take(ev)
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
		e.take(ev)
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

// Sleeper supports periodic activities: it reschedules fn every interval
// until Stop is called.
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
