package railmgr

import (
	"e2edt/internal/metrics"
	"e2edt/internal/sim"
)

// GrayPolicy tunes the peer-comparison outlier scorer. The scorer exists
// for the failure mode the probe heartbeat is structurally blind to: a
// rail that answers every probe and reports Fraction()==1, yet delivers a
// fraction of its peers' throughput (sagging optics, a limping NIC, a
// congested switch radix). No absolute threshold can catch it — "slow" is
// only meaningful relative to the cohort carrying the same workload — so
// the scorer compares each rail's decayed per-stream delivered rate and
// probe latency against the cohort median and applies hysteresis in both
// directions: a rail is marked Suspect only after SuspectAfter consecutive
// breaches, escalated to Degraded only after sustained collapse, and
// exonerated only after ClearAfter consecutive clean scores.
type GrayPolicy struct {
	// Enabled switches the scorer on. Off (the zero value), the manager
	// performs no gray accounting and schedules nothing extra, so legacy
	// runs replay bit-identically.
	Enabled bool
	// Decay is the EWMA smoothing factor for rate and latency estimates
	// (default 0.3; higher reacts faster, lower rides out bursts).
	Decay float64
	// SuspectBelow marks a rail Suspect when its per-stream rate falls
	// below this fraction of the cohort median (default 0.7).
	SuspectBelow float64
	// DegradeBelow escalates a Suspect rail to Degraded when its ratio
	// stays below this fraction (default 0.45).
	DegradeBelow float64
	// ClearAbove exonerates a suspect once its ratio recovers past this
	// fraction (default 0.85). The gap between SuspectBelow and ClearAbove
	// is the hysteresis band that prevents verdict flapping.
	ClearAbove float64
	// LatencyOutlier marks a rail Suspect when its probe latency exceeds
	// this multiple of the cohort median (default 3), catching jitter
	// inflation that leaves throughput intact.
	LatencyOutlier float64
	// SuspectAfter is how many consecutive breaching scores are needed
	// before any verdict (default 3).
	SuspectAfter int
	// ClearAfter is how many consecutive clean scores exonerate (default 3).
	ClearAfter int
	// MinSamples is how many rate observations a rail needs before it
	// joins the cohort (default 3) — a freshly admitted rail is neither
	// judged nor used as evidence against its peers.
	MinSamples int
	// MinWeight floors GrayWeight so a suspect rail always keeps a trickle
	// of credit (default 0.1); starving it entirely would destroy the very
	// rate signal needed to notice recovery.
	MinWeight float64
}

// DefaultGrayPolicy returns the tuned scorer policy, enabled.
func DefaultGrayPolicy() GrayPolicy {
	return GrayPolicy{
		Enabled:        true,
		Decay:          0.3,
		SuspectBelow:   0.7,
		DegradeBelow:   0.45,
		ClearAbove:     0.85,
		LatencyOutlier: 3,
		SuspectAfter:   3,
		ClearAfter:     3,
		MinSamples:     3,
		MinWeight:      0.1,
	}
}

// withDefaults fills zero fields.
func (g GrayPolicy) withDefaults() GrayPolicy {
	d := DefaultGrayPolicy()
	if g.Decay <= 0 || g.Decay > 1 {
		g.Decay = d.Decay
	}
	if g.SuspectBelow <= 0 {
		g.SuspectBelow = d.SuspectBelow
	}
	if g.DegradeBelow <= 0 {
		g.DegradeBelow = d.DegradeBelow
	}
	if g.ClearAbove <= 0 {
		g.ClearAbove = d.ClearAbove
	}
	if g.LatencyOutlier <= 0 {
		g.LatencyOutlier = d.LatencyOutlier
	}
	if g.SuspectAfter <= 0 {
		g.SuspectAfter = d.SuspectAfter
	}
	if g.ClearAfter <= 0 {
		g.ClearAfter = d.ClearAfter
	}
	if g.MinSamples <= 0 {
		g.MinSamples = d.MinSamples
	}
	if g.MinWeight <= 0 {
		g.MinWeight = d.MinWeight
	}
	return g
}

// ObserveRate feeds one delivered-rate sample for rail i, normalized per
// active stream by the caller (the transfer's progress watchdog). The
// normalization is what makes cohort comparison load-independent: a rail
// carrying two streams legitimately delivers twice the bytes of a rail
// carrying one, and must not be judged faster for it.
func (m *Manager) ObserveRate(i int, ratePerStream float64) {
	if !m.pol.Gray.Enabled || m.stop {
		return
	}
	m.grayRate[i].Observe(ratePerStream)
}

// score runs one peer-comparison round over the cohort of usable rails
// with settled rate estimates. It is called from the heartbeat tick, so
// verdict cadence equals probe cadence and everything stays on the
// virtual clock.
func (m *Manager) score(now sim.Time) {
	_ = now
	g := m.pol.Gray
	var cohort []int
	for i := range m.links {
		if m.states[i].Usable() && m.grayRate[i].Samples() >= g.MinSamples {
			cohort = append(cohort, i)
		}
	}
	// One rail has no peers; with none there is no evidence at all.
	if len(cohort) < 2 {
		return
	}
	rates := make([]float64, len(cohort))
	lats := make([]float64, len(cohort))
	for k, i := range cohort {
		rates[k] = m.grayRate[i].Value()
		lats[k] = m.grayLat[i].Value()
	}
	medRate := metrics.Median(rates)
	medLat := metrics.Median(lats)

	for _, i := range cohort {
		ratio := 1.0
		if medRate > 0 {
			ratio = m.grayRate[i].Value() / medRate
		}
		m.ratio[i] = ratio
		latRatio := 1.0
		if medLat > 0 && m.grayLat[i].Samples() > 0 {
			latRatio = m.grayLat[i].Value() / medLat
		}
		breached := ratio < g.SuspectBelow || latRatio > g.LatencyOutlier
		clean := ratio > g.ClearAbove && latRatio <= g.LatencyOutlier

		switch m.states[i] {
		case Healthy:
			if breached {
				m.breach[i]++
				if m.breach[i] >= g.SuspectAfter {
					m.transition(i, Suspect)
				}
			} else {
				m.breach[i] = 0
			}
		case Suspect:
			switch {
			case ratio < g.DegradeBelow:
				m.breach[i]++
				m.clear[i] = 0
				if m.breach[i] >= g.SuspectAfter {
					m.grayDeg[i] = true
					m.GrayDegradations++
					m.transition(i, Degraded)
				}
			case clean:
				m.clear[i]++
				m.breach[i] = 0
				if m.clear[i] >= g.ClearAfter {
					m.GrayClears++
					m.transition(i, Healthy)
				}
			default:
				m.breach[i], m.clear[i] = 0, 0
			}
		case Degraded:
			// Only scorer-imposed degradations are scorer-revocable; a
			// link-layer degrade clears on the link's own up-fraction event.
			if !m.grayDeg[i] {
				continue
			}
			if clean {
				m.clear[i]++
				if m.clear[i] >= g.ClearAfter {
					m.grayDeg[i] = false
					m.GrayClears++
					if m.links[i].Fraction() < 1 {
						continue // still visibly degraded underneath
					}
					m.transition(i, Healthy)
				}
			} else {
				m.clear[i] = 0
			}
		}
	}
}

// GrayWeight returns the credit-share multiplier for rail i: 1 for rails
// the scorer trusts, the clamped cohort-relative rate ratio for rails
// under a gray verdict. Arbiters multiply their fair-share weights by
// this, so a rail delivering 30% of the median keeps roughly 30% of its
// credits instead of dragging every stream pinned to it.
func (m *Manager) GrayWeight(i int) float64 {
	if !m.pol.Gray.Enabled {
		return 1
	}
	if m.states[i] != Suspect && !(m.states[i] == Degraded && m.grayDeg[i]) {
		return 1
	}
	w := m.ratio[i]
	if w < m.pol.Gray.MinWeight {
		w = m.pol.Gray.MinWeight
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
func (m *Manager) RateRatio(i int) float64 { return m.ratio[i] }
