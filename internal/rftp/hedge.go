package rftp

import (
	"fmt"
	"math"

	"e2edt/internal/fluid"
	"e2edt/internal/sim"
)

// Hedged transfers target the regime where a rail is slow but alive:
// in-protocol recovery never fires (progress is progress), failover never
// fires (the rail is not dark), and one limping window stretches the whole
// session's tail. A hedge re-issues the lagging credit window speculatively
// on the best non-suspect rail and lets the two race; the ACK fold on the
// winning side keeps delivery exactly-once, and the loser's bytes are
// accounted as HedgeWaste — the explicit price paid for cutting the tail.
const (
	// hedgeQuantile of recent window-completion times is the deadline
	// baseline, and hedgeMultiplier stretches it into the deadline: a
	// window is hedged once it outlives hedgeMultiplier × Q(hedgeQuantile).
	hedgeQuantile   = 0.99
	hedgeMultiplier = 1.5
	// hedgeMinSamples is how many window completions a rail's history needs
	// before it may anchor a deadline — no hedging during warm-up, when the
	// estimate would be noise.
	hedgeMinSamples = 8
	// hedgeWindow is the sample window per rail; old completions fall out,
	// so the deadline tracks the current regime, not history.
	hedgeWindow = 32
	// hedgeMaxConcurrent bounds hedges racing at once across the transfer:
	// hedging is a scalpel, and an unbounded version would re-create the
	// overload it is meant to dodge.
	hedgeMaxConcurrent = 2
)

// hedgeRace is one speculative window re-issue: the range [baseM, target)
// of the original flow's progress space, racing on another rail.
type hedgeRace struct {
	tr     *fluid.Transfer
	rail   int
	baseM  float64 // original flow progress when the hedge launched
	target float64 // hedge covers [baseM, target)
	at     sim.Time
}

// resetMarks re-anchors a stream's sampling checkpoints on a fresh flow.
func (t *Transfer) resetMarks(s *stream, now sim.Time) {
	s.rateMark, s.rateMarkAt = 0, now
	s.winMark, s.winMarkAt = 0, now
	s.lastWinFresh = false
}

// observeStream takes this tick's measurements for one flowing stream:
// a normalized window-completion sample for the hedge deadline, computed
// whenever at least one full credit window completed since the last mark.
// Runs inside checkProgress, so cadence is AckTimeout/2 and everything
// stays on the virtual clock.
func (t *Transfer) observeStream(s *stream, m float64, now sim.Time) {
	s.lastWinFresh = false
	if !t.P.Hedge {
		return
	}
	w := t.window()
	if m < s.winMark { // fresh flow under a stale mark
		s.winMark, s.winMarkAt = m, now
		return
	}
	if m-s.winMark >= w && now > s.winMarkAt {
		// Normalize elapsed time to one window's worth: several windows
		// completing in one tick average out, which is exactly right — the
		// deadline asks "how long does one window take on this rail now".
		perWin := float64(now-s.winMarkAt) * w / (m - s.winMark)
		t.winQ[s.rail].Observe(perWin)
		s.lastWin, s.lastWinFresh = perWin, true
		s.winMark, s.winMarkAt = m, now
	}
}

// feedGrayRates reports per-rail, per-stream-normalized delivered rates
// to the rail manager's gray scorer. Normalizing by the rail's live
// stream count keeps the cohort comparison load-independent.
func (t *Transfer) feedGrayRates(now sim.Time) {
	if !t.P.Rails.Gray {
		return
	}
	sums := make([]float64, len(t.links))
	counts := make([]int, len(t.links))
	for _, s := range t.streams {
		if s.done || s.recovering || !s.transfer.Active() {
			continue
		}
		m := s.transfer.Transferred()
		if m < s.rateMark || now <= s.rateMarkAt {
			s.rateMark, s.rateMarkAt = m, now
			continue
		}
		sums[s.rail] += (m - s.rateMark) / float64(now-s.rateMarkAt)
		counts[s.rail]++
		s.rateMark, s.rateMarkAt = m, now
	}
	for r := range t.links {
		if counts[r] > 0 {
			t.mgr.ObserveRate(r, sums[r]/float64(counts[r]))
		}
	}
}

// hedgeDeadline computes the adaptive deadline for a stream on rail
// `exclude`: hedgeMultiplier × hedgeQuantile over the window-completion history of
// usable, non-suspect rails other than the stream's own. Anchoring on
// trusted peers couples detection to mitigation — once the scorer marks
// a rail suspect, its inflated samples stop dragging the deadline up.
// Returns 0 when no trusted rail has enough history (no hedging).
func (t *Transfer) hedgeDeadline(exclude int) float64 {
	d := 0.0
	for r := range t.links {
		if r == exclude || !t.railUsable(r) {
			continue
		}
		if t.mgr.Suspect(r) {
			continue
		}
		if t.winQ[r].Len() < hedgeMinSamples {
			continue
		}
		if q := t.winQ[r].Quantile(hedgeQuantile); q > d {
			d = q
		}
	}
	return hedgeMultiplier * d
}

// evaluateHedges fires hedges for streams whose current window has blown
// the deadline — either this tick's fresh completion sample exceeded it,
// or the window in progress is already older than it.
func (t *Transfer) evaluateHedges(now sim.Time) {
	for _, s := range t.streams {
		if s.done || s.recovering || !s.transfer.Active() || s.hedge != nil {
			continue
		}
		if t.hedgeCount >= hedgeMaxConcurrent {
			return
		}
		d := t.hedgeDeadline(s.rail)
		if d <= 0 {
			continue
		}
		overdue := float64(now-s.winMarkAt) > d
		breach := s.lastWinFresh && s.lastWin > d
		if breach || overdue {
			t.launchHedge(s, now, d)
		}
	}
}

// pickHedgeRail chooses where a hedge runs: the usable non-suspect rail
// (other than the stream's own) carrying the fewest live streams and
// hedges, ties to the lowest index — deterministic, like pickRail.
func (t *Transfer) pickHedgeRail(s *stream) (int, bool) {
	loads := make([]int, len(t.links))
	for _, o := range t.streams {
		if !o.done {
			loads[o.rail]++
			if o.hedge != nil {
				loads[o.hedge.rail]++
			}
		}
	}
	best, found := -1, false
	for r := range t.links {
		if r == s.rail || !t.railUsable(r) {
			continue
		}
		if t.mgr.Suspect(r) {
			continue
		}
		if !found || loads[r] < loads[best] {
			best, found = r, true
		}
	}
	return best, found
}

// launchHedge re-issues the stream's lagging window on another rail: a
// fresh fluid flow covering [m, min(m+window, flowSize)) of the original
// flow's progress space. The original keeps running — first completion
// wins the range.
func (t *Transfer) launchHedge(s *stream, now sim.Time, deadline float64) {
	r, ok := t.pickHedgeRail(s)
	if !ok {
		return
	}
	m := s.transfer.Transferred()
	target := math.Min(m+t.window(), s.flowSize)
	if target <= m {
		return
	}
	l := t.links[r]
	f := t.sim.NewFlow(fmt.Sprintf("rftp-hedge/%s/s%d", l.Cfg.Name, s.idx), windowCap(t.Cfg, l))
	if err := t.chargeStream(f, s, r); err != nil {
		return // endpoints exist in rail mode; a charge error means teardown races
	}
	h := &hedgeRace{rail: r, baseM: m, target: target, at: now}
	h.tr = &fluid.Transfer{
		Flow:       f,
		Remaining:  target - m,
		OnComplete: func(now sim.Time) { t.hedgeWon(s, h, now) },
	}
	s.hedge = h
	t.hedgeCount++
	t.Hedges++
	if t.firstHedge < 0 {
		t.firstHedge = now
	}
	t.sim.Start(h.tr)
	t.eng.Tracef("rftp", "stream %d hedging window [%g, %g) on %s (deadline %.3gms blown)",
		s.idx, m, target, l.Cfg.Name, deadline*1e3)
}

// hedgeWon handles the hedge flow finishing first: its range [baseM,
// target) is certainly delivered, the original's progress up to baseM
// was delivered on a live rail (the same clean-handover fold failback
// uses), and the overlap the original managed past baseM is duplicate —
// counted as waste, never as delivery. The stream then follows the
// winner onto the hedge rail.
func (t *Transfer) hedgeWon(s *stream, h *hedgeRace, now sim.Time) {
	if s.hedge != h || t.failed || t.stopped || s.done {
		return
	}
	t.sim.Sync()
	m2 := s.transfer.Transferred()
	if m2 >= h.target {
		// Photo finish, original ahead: treat as a hedge loss and let the
		// original flow keep running untouched.
		t.hedgeLost(s)
		return
	}
	s.hedge = nil
	t.hedgeCount--
	t.HedgeWins++
	t.HedgeWaste += math.Max(0, m2-h.baseM) // duplicated overlap
	t.hedgeLat = append(t.hedgeLat, sim.Duration(now-h.at))
	// A lost race is rate evidence against the losing rail: the original
	// moved m2−baseM while the hedge moved the whole window. Feeding it
	// keeps the gray scorer converging even as hedge wins drain the sick
	// rail of streams (and therefore of regular rate samples).
	if t.P.Rails.Gray && now > h.at {
		t.mgr.ObserveRate(s.rail, math.Max(0, m2-h.baseM)/float64(now-h.at))
	}
	t.retire(s.transfer)
	s.acked += h.target
	if !math.IsInf(s.remaining, 1) {
		s.remaining -= h.target
	}
	t.eng.Tracef("rftp", "stream %d hedge won on %s after %v: offset %g, %g to go",
		s.idx, t.links[h.rail].Cfg.Name, sim.Duration(now-h.at), s.acked, s.remaining)
	if s.remaining <= 0.5 {
		t.segmentDone(s, now)
		return
	}
	s.recovering = true
	s.kind = KindHedge
	s.faultAt = h.at
	from := s.rail
	s.rail = h.rail
	t.eng.Tracef("rftp", "stream %d leaving %s for hedge winner %s",
		s.idx, t.links[from].Cfg.Name, t.links[s.rail].Cfg.Name)
	t.attemptResume(s)
}

// hedgeLost cancels a stream's racing hedge: the original won the range,
// or the stream's state changed under the race (loss declaration,
// migration, completion, teardown). The hedge's partial progress is pure
// waste — it is never folded.
func (t *Transfer) hedgeLost(s *stream) {
	h := s.hedge
	if h == nil {
		return
	}
	s.hedge = nil
	t.hedgeCount--
	t.HedgeLosses++
	t.sim.Sync()
	t.HedgeWaste += h.tr.Transferred()
	t.retire(h.tr)
	t.eng.Tracef("rftp", "stream %d hedge on %s cancelled (%g duplicate bytes)",
		s.idx, t.links[h.rail].Cfg.Name, h.tr.Transferred())
}

// ActiveHedges returns how many hedged windows are racing right now.
func (t *Transfer) ActiveHedges() int { return t.hedgeCount }

// FirstHedgeAt returns when the first hedge launched, and whether any did.
func (t *Transfer) FirstHedgeAt() (sim.Time, bool) {
	if t.firstHedge < 0 {
		return 0, false
	}
	return t.firstHedge, true
}

// HedgeLatencies returns one sample per hedge win: virtual time from
// launch to the hedged window's completion on the winning rail.
func (t *Transfer) HedgeLatencies() []sim.Duration {
	out := make([]sim.Duration, len(t.hedgeLat))
	copy(out, t.hedgeLat)
	return out
}
