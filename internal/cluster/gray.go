package cluster

// Cluster-scale gray-failure handling: a limping host — cores slowed by a
// LimpHost fault, heartbeats intact — is invisible to the binary death
// detector, so the control plane scores every host's delivered-byte rate
// against the cohort median and applies hysteresis before a verdict. A
// suspect verdict does two things: admission penalizes the host as a
// replica source, and the shed valve holds the lowest-priority queued jobs
// until the cohort is healthy again, so scarce healthy capacity serves the
// work that matters most. Everything is gated on Cfg.Gray.Enabled: with the
// zero value no ticker is armed, no counters move, and legacy traces replay
// bit-identically.

import (
	"math"

	"e2edt/internal/metrics"
	"e2edt/internal/sim"
)

// GrayConfig tunes the host outlier scorer and the admission shed valve.
type GrayConfig struct {
	// Enabled arms the scorer ticker and the shed valve. Off (the zero
	// value), the cluster performs no gray accounting at all.
	Enabled bool
	// Every is the scoring cadence (default 0.25).
	Every sim.Duration
	// Decay is the EWMA smoothing factor for per-host delivered-rate
	// estimates (default 0.3).
	Decay float64
	// SuspectBelow marks a host suspect when its per-job delivered rate
	// falls below this fraction of the cohort median (default 0.5).
	SuspectBelow float64
	// ClearAbove exonerates a suspect once its ratio recovers past this
	// fraction (default 0.8); the gap to SuspectBelow is the hysteresis
	// band.
	ClearAbove float64
	// SuspectAfter is how many consecutive breaching scores convict
	// (default 2); ClearAfter how many clean scores exonerate (default 2).
	SuspectAfter int
	ClearAfter   int
	// MinSamples is how many rate observations a host needs before it joins
	// the scoring cohort (default 3).
	MinSamples int
	// ShedBelow is the admission priority floor while any host is under a
	// gray verdict: queued jobs with priority < ShedBelow are held — shed —
	// until the cohort is healthy again, or until they have waited past
	// GiveUpAfter (shedding defers work, it never starves it). Default 1,
	// so the lowest service class sheds first.
	ShedBelow int
}

// withDefaults fills zero fields.
func (g GrayConfig) withDefaults() GrayConfig {
	if g.Every <= 0 {
		g.Every = 0.25
	}
	if g.Decay <= 0 || g.Decay > 1 {
		g.Decay = 0.3
	}
	if g.SuspectBelow <= 0 {
		g.SuspectBelow = 0.5
	}
	if g.ClearAbove <= 0 {
		g.ClearAbove = 0.8
	}
	if g.SuspectAfter <= 0 {
		g.SuspectAfter = 2
	}
	if g.ClearAfter <= 0 {
		g.ClearAfter = 2
	}
	if g.MinSamples <= 0 {
		g.MinSamples = 3
	}
	if g.ShedBelow <= 0 {
		g.ShedBelow = 1
	}
	return g
}

// hostProgress returns per-host landed bytes plus the in-flight progress of
// every inbound transfer, so the rate signal is smooth instead of
// completion-quantized (a host receiving one large job would otherwise read
// zero for seconds and then spike).
func (c *Cluster) hostProgress() []float64 {
	prog := make([]float64, len(c.hosts))
	for i, hn := range c.hosts {
		prog[i] = hn.delivered.Value()
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
	g := c.Cfg.Gray
	c.FSim.Sync()
	dt := float64(g.Every)
	prog := c.hostProgress()

	for i, hn := range c.hosts {
		if c.hostDown[i] || c.deadDeclared[i] {
			c.hostProg[i] = prog[i]
			c.hostRate[i].Reset()
			c.hostBreach[i], c.hostClear[i] = 0, 0
			c.hostSuspect[i] = false
			c.hostRatio[i] = 1
			continue
		}
		delta := prog[i] - c.hostProg[i]
		c.hostProg[i] = prog[i]
		// An idle host with no delivery is no evidence either way; only
		// hosts carrying (or just having finished) inbound work are judged.
		if hn.dstActive > 0 || delta > 0 {
			c.hostRate[i].Observe(delta / dt / math.Max(1, float64(hn.dstActive)))
		}
	}

	var cohort []int
	for i := range c.hosts {
		if !c.hostDown[i] && !c.deadDeclared[i] && c.hostRate[i].Samples() >= g.MinSamples {
			cohort = append(cohort, i)
		}
	}
	if len(cohort) < 2 {
		return
	}
	rates := make([]float64, len(cohort))
	for k, i := range cohort {
		rates[k] = c.hostRate[i].Value()
	}
	med := metrics.Median(rates)
	if med <= 0 {
		return
	}
	for _, i := range cohort {
		ratio := c.hostRate[i].Value() / med
		c.hostRatio[i] = ratio
		switch {
		case !c.hostSuspect[i] && ratio < g.SuspectBelow:
			c.hostClear[i] = 0
			c.hostBreach[i]++
			if c.hostBreach[i] >= g.SuspectAfter {
				c.hostSuspect[i] = true
				c.hostBreach[i] = 0
				c.HostSuspects++
				if c.firstHostSus < 0 {
					c.firstHostSus = now
				}
				c.Eng.Tracef("cluster", "host %d gray-suspect (rate ratio %.2f)", i, ratio)
			}
		case c.hostSuspect[i] && ratio > g.ClearAbove:
			c.hostBreach[i] = 0
			c.hostClear[i]++
			if c.hostClear[i] >= g.ClearAfter {
				c.hostSuspect[i] = false
				c.hostClear[i] = 0
				c.HostClears++
				c.Eng.Tracef("cluster", "host %d gray verdict cleared (rate ratio %.2f)", i, ratio)
			}
		default:
			c.hostBreach[i], c.hostClear[i] = 0, 0
		}
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
			c.Eng.Tracef("cluster", "shed valve closes: priorities below %d held", g.ShedBelow)
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
// past GiveUpAfter passes the valve regardless: shedding trades latency for
// headroom, it never becomes starvation.
func (s *shard) shedHeld(j *job) bool {
	c := s.c
	g := c.Cfg.Gray
	if !g.Enabled || !c.shedding || j.priority >= g.ShedBelow {
		return false
	}
	if c.Eng.Now()-j.submit > sim.Time(c.Cfg.GiveUpAfter) {
		return false
	}
	if !j.shed {
		j.shed = true
		c.Shed++
		c.Eng.Tracef("cluster", "shard %d sheds job %d (priority %d)", s.id, j.id, j.priority)
	}
	return true
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
