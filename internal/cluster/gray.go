package cluster

// Cluster-scale gray-failure handling: a limping host — cores slowed by a
// LimpHost fault, heartbeats intact — is invisible to the binary death
// detector, so the control plane scores every host's delivered-byte rate
// against the cohort median and applies hysteresis before a verdict. A
// suspect verdict does two things: admission penalizes the host as a
// replica source, and the shed valve holds the lowest-priority queued jobs
// until the cohort is healthy again, so scarce healthy capacity serves the
// work that matters most. Everything is gated on Cfg.Gray: off, no ticker is
// armed, no counters move, and legacy traces replay bit-identically.

import (
	"math"

	"e2edt/internal/metrics"
	"e2edt/internal/sim"
)

const (
	// grayEvery is the host scoring cadence.
	grayEvery sim.Duration = 0.25
	// shedBelow is the admission priority floor while any host is under a
	// gray verdict: queued jobs with priority < shedBelow are held — shed —
	// until the cohort is healthy again, or until they have waited past
	// giveUpAfter (shedding defers work, it never starves it). The lowest
	// service class sheds first.
	shedBelow = 1
)

// newGrayScorer returns the host scorer. A host is suspected below 50% of
// the median per-job delivered rate after 2 consecutive rounds and cleared
// above 80% after 2; it joins the cohort after 3 rate samples. Hosts are
// never escalated and their latency is not judged.
func newGrayScorer(hosts int) *metrics.PeerScorer {
	return metrics.NewPeerScorer(hosts, metrics.PeerRule{
		Decay:        0.3,
		SuspectBelow: 0.5,
		ClearAbove:   0.8,
		SuspectAfter: 2,
		ClearAfter:   2,
		MinSamples:   3,
	})
}

// hostProgress returns per-host landed bytes plus the in-flight progress of
// every inbound transfer, so the rate signal is smooth instead of
// completion-quantized (a host receiving one large job would otherwise read
// zero for seconds and then spike).
func (c *Cluster) hostProgress() []float64 {
	prog := make([]float64, len(c.hosts))
	for i, hn := range c.hosts {
		prog[i] = hn.delivered
	}
	for _, sh := range c.shards {
		for _, j := range sh.running {
			if j.xfer != nil {
				prog[j.dst] += j.xfer.Transferred()
			}
		}
	}
	return prog
}

// scoreHosts runs one peer-comparison round: per-host delivered rate
// normalized by active inbound jobs, EWMA-smoothed, judged against the
// cohort median with hysteresis in both directions. Crashed or declared-dead
// hosts are reset and sit the round out — the binary detector owns them.
func (c *Cluster) scoreHosts(now sim.Time) {
	if c.done {
		return
	}
	c.FSim.Sync()
	dt := float64(grayEvery)
	prog := c.hostProgress()

	for i, hn := range c.hosts {
		if c.hostDown[i] || c.deadDeclared[i] {
			c.hostProg[i] = prog[i]
			c.gray.Reset(i)
			c.hostSuspect[i] = false
			continue
		}
		delta := prog[i] - c.hostProg[i]
		c.hostProg[i] = prog[i]
		// An idle host with no delivery is no evidence either way; only
		// hosts carrying (or just having finished) inbound work are judged.
		if hn.dstActive > 0 || delta > 0 {
			c.gray.ObserveRate(i, delta/dt/math.Max(1, float64(hn.dstActive)))
		}
	}
	// A round without evidence leaves the valve as it stands.
	judged := c.gray.Score(c.hostStanding, func(i int, to metrics.Standing) {
		ratio := c.gray.Ratio(i)
		if to == metrics.PeerSuspect {
			c.hostSuspect[i] = true
			c.HostSuspects++
			if c.firstHostSus < 0 {
				c.firstHostSus = now
			}
			c.Eng.Tracef("cluster", "host %d gray-suspect (rate ratio %.2f)", i, ratio)
			return
		}
		c.hostSuspect[i] = false
		c.HostClears++
		c.Eng.Tracef("cluster", "host %d gray verdict cleared (rate ratio %.2f)", i, ratio)
	})
	if !judged {
		return
	}

	shedding := false
	for _, s := range c.hostSuspect {
		if s {
			shedding = true
			break
		}
	}
	if shedding != c.shedding {
		c.shedding = shedding
		if shedding {
			c.Eng.Tracef("cluster", "shed valve closes: priorities below %d held", shedBelow)
		} else {
			c.Eng.Tracef("cluster", "shed valve reopens")
		}
		if !shedding {
			// Freed verdicts unblock held jobs everywhere, not just on the
			// shards that happen to scan next.
			for _, sh := range c.shards {
				sh.admit()
			}
		}
	}
}

// shedHeld reports whether the valve holds job j this admission pass, and
// counts each job's first shed exactly once. A job that has already waited
// past giveUpAfter passes the valve regardless: shedding trades latency for
// headroom, it never becomes starvation.
func (s *shard) shedHeld(j *job) bool {
	c := s.c
	if !c.Cfg.Gray || !c.shedding || j.priority >= shedBelow {
		return false
	}
	if c.Eng.Now()-j.submit > sim.Time(giveUpAfter) {
		return false
	}
	if !j.shed {
		j.shed = true
		c.Shed++
		c.Eng.Tracef("cluster", "shard %d sheds job %d (priority %d)", s.id, j.id, j.priority)
	}
	return true
}

// hostStanding reports host i's role in a scoring round: crashed and
// declared-dead hosts sit it out — the binary detector owns them.
func (c *Cluster) hostStanding(i int) metrics.Standing {
	switch {
	case c.hostDown[i] || c.deadDeclared[i]:
		return metrics.PeerAbsent
	case c.hostSuspect[i]:
		return metrics.PeerSuspect
	}
	return metrics.PeerTrusted
}

// SuspectHosts returns the ids of hosts currently under a gray verdict.
func (c *Cluster) SuspectHosts() []int {
	var out []int
	for i, s := range c.hostSuspect {
		if s {
			out = append(out, i)
		}
	}
	return out
}

// FirstHostSuspectAt returns the virtual time of the first host suspect
// verdict and whether one ever happened.
func (c *Cluster) FirstHostSuspectAt() (sim.Time, bool) {
	if c.firstHostSus < 0 {
		return 0, false
	}
	return c.firstHostSus, true
}

// Shedding reports whether the admission valve is currently closed.
func (c *Cluster) Shedding() bool { return c.shedding }
