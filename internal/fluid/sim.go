package fluid

import (
	"fmt"
	"math"
	"slices"

	"e2edt/internal/sim"
)

// Transfer is a finite (or open-ended) amount of fluid moved through the
// network by one flow. The simulator integrates flow rates over virtual time
// and fires OnComplete when Remaining reaches zero.
type Transfer struct {
	Flow      *Flow
	Remaining float64 // units left; math.Inf(1) for an open-ended stream
	// OnComplete runs when the transfer finishes. It may start new
	// transfers. Nil is allowed.
	OnComplete func(now sim.Time)

	transferred float64
	finished    sim.Time
	active      bool
}

// Transferred returns the units moved so far (accurate as of the last
// simulator synchronization; call Sim.Sync first for an up-to-date value).
func (t *Transfer) Transferred() float64 { return t.transferred }

// Active reports whether the transfer is currently in flight.
func (t *Transfer) Active() bool { return t.active }

// Finished returns the virtual time the transfer completed (zero if still
// active).
func (t *Transfer) Finished() sim.Time { return t.finished }

// Account accumulates the resource-units charged to it: Σ Coeff × units
// moved over every Usage that names it. The reader of a consumption figure
// owns its account (a host's CPU category, an SSD's media direction) and
// reads it with Sim.Used. The zero value is an empty account.
type Account struct {
	// folded holds what finished and cancelled transfers consumed.
	folded float64
}

// Sim couples a fluid Network with a discrete-event engine: it starts and
// completes transfers, keeps flow rates max-min fair as the flow population
// changes, and folds each transfer's consumption into the Accounts its
// Uses name when the transfer ends.
type Sim struct {
	Engine  *sim.Engine
	Network *Network

	// active holds in-flight transfers in insertion order; deterministic
	// iteration keeps float accumulation bit-for-bit reproducible.
	active     []*Transfer
	lastSync   sim.Time
	completion *sim.Event
}

// NewSim returns a simulator over a fresh network.
func NewSim(eng *sim.Engine) *Sim {
	return &Sim{Engine: eng, Network: NewNetwork()}
}

// Start activates a transfer. The transfer's flow must already be registered
// with the network (Sim.NewFlow does this).
func (s *Sim) Start(t *Transfer) {
	if t.Flow == nil {
		panic("fluid: transfer without flow")
	}
	if t.active {
		panic(fmt.Sprintf("fluid: transfer %s started twice", t.Flow.Name))
	}
	if t.Remaining <= 0 && !math.IsInf(t.Remaining, 1) {
		panic(fmt.Sprintf("fluid: transfer %s with non-positive size", t.Flow.Name))
	}
	s.Sync()
	t.active = true
	s.active = append(s.active, t)
	s.reschedule()
	s.Engine.Tracef("fluid", "start %s remaining=%g rate=%g", t.Flow.Name, t.Remaining, t.Flow.rate)
}

// NewFlow registers a flow in the simulator's network.
func (s *Sim) NewFlow(name string, demand float64) *Flow {
	return s.Network.NewFlow(name, demand)
}

// AddResource registers a resource in the simulator's network.
func (s *Sim) AddResource(name string, capacity float64) *Resource {
	return s.Network.AddResource(name, capacity)
}

// RemoveResource retires a resource no registered flow crosses any more.
// Accounts charged through it keep what they hold: an account belongs to
// its reader, not to the resource.
func (s *Sim) RemoveResource(r *Resource) {
	s.Network.RemoveResource(r)
}

// SetDemand changes a flow's demand cap and re-solves.
func (s *Sim) SetDemand(f *Flow, demand float64) {
	s.Sync()
	s.Network.SetDemand(f, demand)
	s.reschedule()
}

// SetCapacity changes a resource's capacity mid-run (e.g. a thermally
// throttled SSD) and re-solves.
func (s *Sim) SetCapacity(r *Resource, capacity float64) {
	s.Sync()
	s.Network.SetCapacity(r, capacity)
	s.reschedule()
	s.Engine.Tracef("fluid", "capacity %s=%g", r.Name, capacity)
}

// Cancel aborts an active transfer without firing OnComplete.
func (s *Sim) Cancel(t *Transfer) {
	if !t.active {
		return
	}
	s.Sync()
	s.fold(t)
	t.active = false
	t.finished = s.Engine.Now()
	s.removeActive(t)
	s.Network.RemoveFlow(t.Flow)
	s.reschedule()
	s.Engine.Tracef("fluid", "cancel %s transferred=%g", t.Flow.Name, t.transferred)
}

// removeActive drops t from the ordered active list. slices.Delete zeroes
// the vacated tail slot, so a finished transfer (and whatever its
// OnComplete closure holds) is not kept reachable by the backing array.
func (s *Sim) removeActive(t *Transfer) {
	if i := slices.Index(s.active, t); i >= 0 {
		s.active = slices.Delete(s.active, i, i+1)
	}
}

// Sync accrues progress up to the current virtual time. It must be called
// before reading Transferred or Used mid-run.
func (s *Sim) Sync() {
	now := s.Engine.Now()
	dt := float64(now - s.lastSync)
	if dt < 0 {
		panic("fluid: time went backwards")
	}
	if dt > 0 {
		for _, t := range s.active {
			moved := t.Flow.rate * dt
			t.transferred += moved
			if !math.IsInf(t.Remaining, 1) {
				t.Remaining -= moved
				if t.Remaining < 0 {
					t.Remaining = 0
				}
			}
		}
	}
	s.lastSync = now
}

// fold adds a finished or cancelled transfer's consumption, Coeff × units
// moved, into the account of every accounted Use. Unaccounted entries are
// solver-only constraints.
func (s *Sim) fold(t *Transfer) {
	if t.transferred <= 0 {
		return
	}
	for _, u := range t.Flow.Uses {
		if u.Acct != nil {
			u.Acct.folded += u.Coeff * t.transferred
		}
	}
}

// Used returns the resource-units charged to a non-nil account: what
// ended transfers folded into it plus the progress of active ones, which
// contribute lazily so the per-event hot path never touches an account.
func (s *Sim) Used(a *Account) float64 {
	total := a.folded
	for _, t := range s.active {
		if t.transferred <= 0 {
			continue
		}
		for _, u := range t.Flow.Uses {
			if u.Acct == a {
				total += u.Coeff * t.transferred
			}
		}
	}
	return total
}

// ActiveTransfers returns the number of in-flight transfers.
func (s *Sim) ActiveTransfers() int { return len(s.active) }

// Refresh accrues progress, forces a from-scratch re-solve and reschedules
// the next completion event. It is the entry point for callers that edited
// flow Uses in place (re-homed buffers, re-pinned threads): no setter sees
// those edits, so the network must be invalidated before rates are
// recomputed.
func (s *Sim) Refresh() {
	s.Sync()
	s.Network.Invalidate()
	s.reschedule()
}

// Reschedule accrues progress, resolves the changes batched through the
// Network setters (demands, weights, capacities, appended Uses) and re-arms
// the next completion event. Unlike Refresh it does not invalidate the
// network, so batched fair-share weight updates resolve through the
// bottleneck-subgraph path instead of a full solve.
func (s *Sim) Reschedule() {
	s.Sync()
	s.reschedule()
}

// reschedule re-solves rates (when something actually changed — see
// Network.Resolve) and schedules the next completion event. Callers must
// Sync first.
func (s *Sim) reschedule() {
	s.Network.Resolve()
	if s.completion != nil {
		s.Engine.Cancel(s.completion)
		s.completion = nil
	}
	next := math.Inf(1)
	for _, t := range s.active {
		if math.IsInf(t.Remaining, 1) {
			continue
		}
		r := t.Flow.rate
		if r <= 0 {
			continue // stalled; a future topology change will wake it
		}
		eta := t.Remaining / r
		if eta < next {
			next = eta
		}
	}
	if math.IsInf(next, 1) {
		return
	}
	if next < 0 {
		next = 0
	}
	s.completion = s.Engine.Schedule(sim.Duration(next), s.complete)
}

// complete finishes every transfer whose Remaining has reached zero.
func (s *Sim) complete() {
	s.Sync()
	s.completion = nil
	var done []*Transfer
	for _, t := range s.active {
		if !math.IsInf(t.Remaining, 1) && t.Remaining <= completionSlack(t) {
			done = append(done, t)
		}
	}
	if len(done) == 0 {
		// Floating-point residue can leave the triggering transfer a hair
		// above the slack threshold; force-complete the nearest one so the
		// simulation cannot spin on zero-length events.
		var nearest *Transfer
		best := math.Inf(1)
		for _, t := range s.active {
			r := t.Flow.rate
			if math.IsInf(t.Remaining, 1) || r <= 0 {
				continue
			}
			if eta := t.Remaining / r; eta < best {
				best = eta
				nearest = t
			}
		}
		if nearest != nil && best <= 1e-6 {
			nearest.transferred += nearest.Remaining
			nearest.Remaining = 0
			done = append(done, nearest)
		}
	}
	for _, t := range done {
		t.Remaining = 0
		s.fold(t)
		t.active = false
		t.finished = s.Engine.Now()
		s.removeActive(t)
		s.Network.RemoveFlow(t.Flow)
		s.Engine.Tracef("fluid", "complete %s transferred=%g", t.Flow.Name, t.transferred)
	}
	s.reschedule()
	for _, t := range done {
		if t.OnComplete != nil {
			t.OnComplete(s.Engine.Now())
		}
	}
}

// completionSlack tolerates floating-point residue proportional to the
// transfer's progress.
func completionSlack(t *Transfer) float64 {
	return 1e-9 * math.Max(1, t.transferred)
}
