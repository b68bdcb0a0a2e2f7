package objstore

import (
	"fmt"
	"slices"

	"e2edt/internal/sim"
)

// putState tracks one PUT through a gateway: completions counts delivery
// callbacks (the exactly-once audit asserts it lands on exactly 1).
type putState struct {
	spec        PutSpec
	completions int
	doneAt      sim.Time
}

// ledger is the per-PUT delivery record both gateways keep: what was
// accepted, how often each PUT completed, and when it last did.
type ledger struct {
	puts []putState
}

// record validates a whole batch, then records every PUT in it, so a
// rejected batch leaves nothing behind. Returns the put indices in
// submission order.
func (l *ledger) record(objs []PutSpec) ([]int, error) {
	for _, o := range objs {
		if err := ValidateBucket(o.Bucket); err != nil {
			return nil, err
		}
		if err := ValidateKey(o.Key); err != nil {
			return nil, err
		}
		if o.Size < 0 {
			return nil, fmt.Errorf("objstore: object %s has negative size", FormatKey(o.Bucket, o.Key))
		}
	}
	l.puts = slices.Grow(l.puts, len(objs))
	idx := make([]int, len(objs))
	for i, o := range objs {
		idx[i] = len(l.puts)
		l.puts = append(l.puts, putState{spec: o})
	}
	return idx, nil
}

// complete records one delivery of put pi.
func (l *ledger) complete(pi int, now sim.Time) {
	ps := &l.puts[pi]
	ps.completions++
	ps.doneAt = now
}

// audit verifies every PUT completed exactly once — no lost object, no
// duplicate completion across windows, retries and attempts.
func (l *ledger) audit() error {
	for i := range l.puts {
		if ps := &l.puts[i]; ps.completions != 1 {
			return fmt.Errorf("objstore: put %d (%s) completed %d times, want exactly 1",
				i, FormatKey(ps.spec.Bucket, ps.spec.Key), ps.completions)
		}
	}
	return nil
}

// ObjectsDone returns delivered object and byte totals, each PUT counted
// once however often it completed.
func (l *ledger) ObjectsDone() (objects int, bytes float64) {
	for i := range l.puts {
		if ps := &l.puts[i]; ps.completions > 0 {
			objects++
			bytes += float64(ps.spec.Size)
		}
	}
	return objects, bytes
}

// DoneAt returns put i's delivery time (zero if still in flight).
func (l *ledger) DoneAt(i int) sim.Time { return l.puts[i].doneAt }
