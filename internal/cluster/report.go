package cluster

import (
	"fmt"

	"e2edt/internal/metrics"
	"e2edt/internal/units"
)

// Report summarizes a finished cluster run.
type Report struct {
	Hosts, Shards, Tenants, Jobs int

	// VirtualSeconds is the virtual time at which the last job retired.
	VirtualSeconds float64
	// DeliveredBytes sums the bytes landed on every host, in host order.
	DeliveredBytes float64
	// AggregateGoodputGbps is delivered payload over the active window.
	AggregateGoodputGbps float64

	// Decision latency (wall clock, microseconds) over admission passes.
	Decisions                    uint64
	DecisionP50us, DecisionP99us float64

	// Tally is the run's outcome counts, copied from the cluster.
	Tally

	// PerShard carries per-shard admission counts (index = shard id).
	PerShard []int
}

// Report assembles the summary after Run.
func (c *Cluster) Report() Report {
	elapsed := float64(c.Eng.Now())
	delivered := c.deliveredBytes()
	r := Report{
		Hosts:          c.Hosts(),
		Shards:         len(c.shards),
		Tenants:        c.Tenants(),
		Jobs:           c.Jobs(),
		VirtualSeconds: elapsed,
		DeliveredBytes: delivered,
		Decisions:      c.DecisionLat.Count(),
		DecisionP50us:  c.DecisionLat.Quantile(0.50),
		DecisionP99us:  c.DecisionLat.Quantile(0.99),
		Tally:          c.Tally,
	}
	if elapsed > 0 {
		r.AggregateGoodputGbps = units.ToGbps(delivered / elapsed)
	}
	for _, sh := range c.shards {
		r.PerShard = append(r.PerShard, sh.admitted)
	}
	return r
}

// deliveredBytes sums the bytes landed on every host, in host order, so
// the total is the same float on every run.
func (c *Cluster) deliveredBytes() float64 {
	total := 0.0
	for _, hn := range c.hosts {
		total += hn.delivered
	}
	return total
}

// Table renders the report as a metrics table for CLI/experiment output.
func (r Report) Table() *metrics.Table {
	t := &metrics.Table{
		Title:   fmt.Sprintf("cluster: %d hosts, %d shards, %d tenants, %d jobs", r.Hosts, r.Shards, r.Tenants, r.Jobs),
		Headers: []string{"metric", "value"},
	}
	t.AddRow("virtual time", fmt.Sprintf("%.2f s", r.VirtualSeconds))
	t.AddRow("delivered", units.FormatBytes(int64(r.DeliveredBytes)))
	t.AddRow("aggregate goodput", fmt.Sprintf("%.2f Gbps", r.AggregateGoodputGbps))
	t.AddRow("decisions", fmt.Sprintf("%d", r.Decisions))
	t.AddRow("decision latency p50", fmt.Sprintf("%.1f µs", r.DecisionP50us))
	t.AddRow("decision latency p99", fmt.Sprintf("%.1f µs", r.DecisionP99us))
	t.AddRow("ctrl drops / resends", fmt.Sprintf("%d / %d", r.CtrlDrops, r.CtrlResends))
	t.AddRow("jobs lost", fmt.Sprintf("%d", r.JobsLost))
	t.AddRow("digests / adjusts", fmt.Sprintf("%d / %d", r.Digests, r.Adjusts))
	t.AddRow("host fails / restores", fmt.Sprintf("%d / %d", r.HostFails, r.HostRestores))
	t.AddRow("dead declared", fmt.Sprintf("%d", r.DeadDeclared))
	t.AddRow("requeued / rerouted / voided", fmt.Sprintf("%d / %d / %d",
		r.JobsRequeued, r.Reroutes, r.VoidedJobs))
	t.AddRow("ctrl fails / adoptions", fmt.Sprintf("%d / %d", r.CtrlFails, r.Adoptions))
	t.AddRow("elections", fmt.Sprintf("%d", r.Elections))
	t.AddRow("stale leases / adjusts", fmt.Sprintf("%d / %d", r.StaleLeases, r.StaleAdjusts))
	t.AddRow("degraded in / out", fmt.Sprintf("%d / %d", r.DegradedIn, r.DegradedOut))
	t.AddRow("partition drops", fmt.Sprintf("%d", r.PartDrops))
	t.AddRow("host limps", fmt.Sprintf("%d", r.HostLimps))
	t.AddRow("gray suspects / clears", fmt.Sprintf("%d / %d", r.HostSuspects, r.HostClears))
	t.AddRow("jobs shed", fmt.Sprintf("%d", r.Shed))
	t.AddRow("locality same/leaf/pod/core", fmt.Sprintf("%d / %d / %d / %d",
		r.Locality[localitySame], r.Locality[localityLeaf], r.Locality[localityPod], r.Locality[localityCore]))
	return t
}
