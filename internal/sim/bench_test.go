package sim

import "testing"

func BenchmarkScheduleAndFire(b *testing.B) {
	e := NewEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(1, func() {})
		e.Step()
	}
}

func BenchmarkHeapChurn1k(b *testing.B) {
	// 1000 pending events at all times.
	e := NewEngine()
	for i := 0; i < 1000; i++ {
		e.Schedule(Duration(i+1), func() {})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(Duration(2000), func() {})
		e.Step()
	}
}

// BenchmarkScheduleCancelChurn is the watchdog-reset pattern: a pending
// event is cancelled and replaced on every op. The event free-list and
// lazy-cancel compaction make this allocation-free at steady state.
func BenchmarkScheduleCancelChurn(b *testing.B) {
	e := NewEngine()
	evs := make([]*Event, 1000)
	for i := range evs {
		evs[i] = e.Schedule(Duration(i+1), func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := i % len(evs)
		e.Cancel(evs[slot])
		evs[slot] = e.Schedule(Duration(2000+i), func() {})
	}
}

// BenchmarkTickerStorm is the steady state of 100k periodic events with
// intervals spread over 0.4–0.6 s; one op fires one event, which
// reschedules itself. The rescheduling closures are built once, so the
// loop measures the queue alone.
func BenchmarkTickerStorm(b *testing.B) {
	e := NewEngine()
	fns := make([]func(), 100_000)
	for i := range fns {
		iv := Duration(0.4 + 0.2*float64(i%101)/100)
		idx := i
		fns[idx] = func() { e.Schedule(iv, fns[idx]) }
		e.Schedule(iv, fns[idx])
	}
	e.RunFor(1) // warm the free list
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
