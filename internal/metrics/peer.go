package metrics

// PeerScorer is a peer-comparison outlier detector for the failure mode a
// binary liveness check is blind to: a member (a rail, a host) that answers
// every heartbeat yet delivers a fraction of what its peers do. "Slow" only
// means something relative to the cohort carrying the same workload, so the
// scorer never applies an absolute threshold. It compares each member's
// decayed rate against the cohort median and applies hysteresis in both
// directions: a verdict needs SuspectAfter consecutive breaches,
// escalation needs sustained collapse, and exoneration needs ClearAfter
// consecutive clean rounds.
//
// The scorer owns the statistics and the breach/clear counters; the caller
// owns each member's standing and what a verdict does. Callers differ only
// in their PeerRule.
type PeerScorer struct {
	rule    PeerRule
	m       []peer
	cohort  []int
	scratch []float64
}

// PeerRule is a scorer's tuning.
type PeerRule struct {
	// Decay is the EWMA smoothing factor for rate estimates, in (0, 1];
	// higher reacts faster, lower rides out bursts.
	Decay float64
	// SuspectBelow: a trusted member whose rate ratio to the cohort median
	// falls below it breaches.
	SuspectBelow float64
	// DegradeBelow escalates a suspect whose ratio stays below it. Zero
	// never escalates.
	DegradeBelow float64
	// ClearAbove: a suspect's round is clean once its ratio recovers past
	// it. The gap to SuspectBelow is the band that prevents flapping.
	ClearAbove float64
	// SuspectAfter is how many consecutive breaches convict (or escalate);
	// ClearAfter how many consecutive clean rounds exonerate. Both ≥ 1.
	SuspectAfter, ClearAfter int
	// MinSamples is how many rate samples a member needs before it joins
	// the cohort: a fresh member is neither judged nor evidence.
	MinSamples int
}

// Standing is a member's role in a scoring round, as the caller reports
// it, and the verdict the scorer hands back.
type Standing uint8

const (
	// PeerAbsent members sit the round out: neither judged nor evidence.
	PeerAbsent Standing = iota
	// PeerWitness members count toward the cohort median but are not
	// judged; another detector owns their verdict.
	PeerWitness
	// PeerTrusted members are judged and under no verdict.
	PeerTrusted
	// PeerSuspect members are under a suspect verdict.
	PeerSuspect
	// PeerDegraded members were escalated below DegradeBelow.
	PeerDegraded
)

type peer struct {
	rate          EWMA
	ratio         float64
	breach, clear int
}

// NewPeerScorer returns a scorer over members 0..n-1.
func NewPeerScorer(n int, rule PeerRule) *PeerScorer {
	if rule.Decay <= 0 || rule.Decay > 1 {
		panic("metrics: PeerRule.Decay must be in (0, 1]")
	}
	s := &PeerScorer{rule: rule, m: make([]peer, n)}
	for i := range s.m {
		s.Reset(i)
	}
	return s
}

// ObserveRate feeds one rate sample for member i. Callers normalize it by
// load (per stream, per job) so the comparison is load-independent.
func (s *PeerScorer) ObserveRate(i int, v float64) { s.m[i].rate.Observe(v) }

// Ratio returns member i's last rate ratio to the cohort median, 1 before
// any round has judged it.
func (s *PeerScorer) Ratio(i int) float64 { return s.m[i].ratio }

// Reset forgets member i's estimates and counters and sets its ratio to 1.
func (s *PeerScorer) Reset(i int) {
	s.m[i] = peer{rate: EWMA{alpha: s.rule.Decay}, ratio: 1}
}

// ResetCounters zeroes member i's breach and clear counts. Callers call it
// when the member's standing changes for a reason of their own.
func (s *PeerScorer) ResetCounters(i int) { s.m[i].breach, s.m[i].clear = 0, 0 }

// Score runs one round. standing reports each member's role; verdict is
// called, in ascending member order, for every judged member whose verdict
// changes, after its counters are zeroed. standing is asked again just
// before a member is judged, so a verdict may change later members'
// standing. A cohort of fewer than two members, or one with no rate
// evidence (median ≤ 0), changes nothing, and Score reports false.
func (s *PeerScorer) Score(standing func(i int) Standing, verdict func(i int, to Standing)) bool {
	r := s.rule
	s.cohort, s.scratch = s.cohort[:0], s.scratch[:0]
	for i := range s.m {
		if standing(i) != PeerAbsent && s.m[i].rate.Samples() >= r.MinSamples {
			s.cohort = append(s.cohort, i)
			s.scratch = append(s.scratch, s.m[i].rate.Value())
		}
	}
	if len(s.cohort) < 2 {
		return false
	}
	medRate := Median(s.scratch)
	if medRate <= 0 {
		return false
	}

	for _, i := range s.cohort {
		p := &s.m[i]
		p.ratio = p.rate.Value() / medRate
		breached := p.ratio < r.SuspectBelow
		clean := p.ratio > r.ClearAbove

		to := PeerAbsent
		switch standing(i) {
		case PeerTrusted:
			p.breach = tally(p.breach, breached)
			if p.breach >= r.SuspectAfter {
				to = PeerSuspect
			}
		case PeerSuspect:
			sinking := r.DegradeBelow > 0 && p.ratio < r.DegradeBelow
			p.breach = tally(p.breach, sinking)
			p.clear = tally(p.clear, clean && !sinking)
			switch {
			case p.breach >= r.SuspectAfter:
				to = PeerDegraded
			case p.clear >= r.ClearAfter:
				to = PeerTrusted
			}
		case PeerDegraded:
			p.clear = tally(p.clear, clean)
			if p.clear >= r.ClearAfter {
				to = PeerTrusted
			}
		}
		if to != PeerAbsent {
			p.breach, p.clear = 0, 0
			verdict(i, to)
		}
	}
	return true
}

// tally extends a run of consecutive hits, or ends it.
func tally(run int, hit bool) int {
	if hit {
		return run + 1
	}
	return 0
}
