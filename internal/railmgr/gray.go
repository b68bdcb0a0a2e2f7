package railmgr

import (
	"e2edt/internal/metrics"
	"e2edt/internal/sim"
)

// The gray scorer exists for the failure mode the probe heartbeat is
// structurally blind to: a rail that answers every probe and reports
// Fraction()==1, yet delivers a fraction of its peers' throughput (sagging
// optics, a limping NIC, a congested switch radix). It compares each rail's
// decayed per-stream delivered rate with the cohort of usable rails
// (metrics.PeerScorer). A verdict moves the rail Healthy → Suspect →
// Degraded and back; a link-layer degrade outranks it.

// newGrayScorer returns the rail scorer. A rail is suspected below 70% of
// the median per-stream rate, escalated below 45%, and cleared above 85%,
// each after 3 consecutive rounds; a rail joins the cohort after 3 rate
// samples.
func newGrayScorer(rails int) *metrics.PeerScorer {
	return metrics.NewPeerScorer(rails, metrics.PeerRule{
		Decay:        0.3,
		SuspectBelow: 0.7,
		DegradeBelow: 0.45,
		ClearAbove:   0.85,
		SuspectAfter: 3,
		ClearAfter:   3,
		MinSamples:   3,
	})
}

// grayMinWeight floors GrayWeight so a suspect rail always keeps a trickle
// of credit; starving it entirely would destroy the very rate signal needed
// to notice recovery.
const grayMinWeight = 0.1

// ObserveRate feeds one delivered-rate sample for rail i, normalized per
// active stream by the caller (the transfer's progress watchdog). The
// normalization is what makes cohort comparison load-independent: a rail
// carrying two streams legitimately delivers twice the bytes of a rail
// carrying one, and must not be judged faster for it.
func (m *Manager) ObserveRate(i int, ratePerStream float64) {
	if !m.pol.Gray || m.stop {
		return
	}
	m.gray.ObserveRate(i, ratePerStream)
}

// grayStanding reports rail i's role in a scoring round: usable rails are
// judged, except link-layer Degraded ones, whose verdict the link owns —
// they only count toward the cohort median.
func (m *Manager) grayStanding(i int) metrics.Standing {
	switch st := m.states[i]; {
	case !st.Usable():
		return metrics.PeerAbsent
	case st == Suspect:
		return metrics.PeerSuspect
	case st == Degraded && m.grayDeg[i]:
		return metrics.PeerDegraded
	case st == Degraded:
		return metrics.PeerWitness
	}
	return metrics.PeerTrusted
}

// grayVerdict applies a scorer verdict to rail i. A scorer-degraded rail
// whose link is also visibly degraded underneath stays Degraded, now on the
// link's authority.
func (m *Manager) grayVerdict(i int, to metrics.Standing) {
	switch to {
	case metrics.PeerSuspect:
		m.transition(i, Suspect)
	case metrics.PeerDegraded:
		m.grayDeg[i] = true
		m.GrayDegradations++
		m.transition(i, Degraded)
	case metrics.PeerTrusted:
		m.grayDeg[i] = false
		m.GrayClears++
		if m.links[i].Fraction() >= 1 {
			m.transition(i, Healthy)
		}
	}
}

// GrayWeight returns the credit-share multiplier for rail i: 1 for rails
// the scorer trusts, the clamped cohort-relative rate ratio for rails
// under a gray verdict. Arbiters multiply their fair-share weights by
// this, so a rail delivering 30% of the median keeps roughly 30% of its
// credits instead of dragging every stream pinned to it.
func (m *Manager) GrayWeight(i int) float64 {
	if !m.pol.Gray {
		return 1
	}
	if m.states[i] != Suspect && !(m.states[i] == Degraded && m.grayDeg[i]) {
		return 1
	}
	w := m.gray.Ratio(i)
	if w < grayMinWeight {
		w = grayMinWeight
	}
	if w > 1 {
		w = 1
	}
	return w
}

// Suspect reports whether rail i is currently under a gray verdict
// (Suspect, or Degraded by the scorer rather than the link layer).
func (m *Manager) Suspect(i int) bool {
	return m.states[i] == Suspect || (m.states[i] == Degraded && m.grayDeg[i])
}

// SuspectRails returns the indices of rails under a gray verdict, ascending.
func (m *Manager) SuspectRails() []int {
	var out []int
	for i := range m.states {
		if m.Suspect(i) {
			out = append(out, i)
		}
	}
	return out
}

// FirstSuspectAt returns the virtual time of the first Suspect entry and
// whether one ever happened — the numerator of detection latency.
func (m *Manager) FirstSuspectAt() (sim.Time, bool) {
	if m.firstSus < 0 {
		return 0, false
	}
	return m.firstSus, true
}

// RateRatio returns rail i's last cohort-relative per-stream rate ratio
// (1 before any scoring round has judged it).
func (m *Manager) RateRatio(i int) float64 { return m.gray.Ratio(i) }
