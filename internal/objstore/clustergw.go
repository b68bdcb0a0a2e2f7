package objstore

import (
	"e2edt/internal/cluster"
	"e2edt/internal/sim"
)

// ClusterGateway maps object PUTs onto the sharded cluster control plane:
// each object's canonical key is consistently hashed to a destination host
// (cluster.HostForKey), objects adjacent in their destination's queue
// coalesce into one cluster job, and the gateway's own per-object ledger
// rides the cluster's exactly-once completion hooks. The metadata CPU path is not
// modeled here — the cluster abstraction has no per-host thread model —
// so cluster mode measures the coalescing layer's control-plane effect
// alone: jobs submitted ≪ objects stored, admission passes and ctrl RPCs
// amortized across each window.
type ClusterGateway struct {
	C *cluster.Cluster
	P Params

	// Dataset is the staging dataset windows transfer from (replicas on
	// the first few hosts, like a gateway ingest tier).
	Dataset int

	ledger
	jobPuts map[int][]int // cluster job id → put indices (keyed only)
	// Windows counts cluster jobs submitted; JobsLost counts windows the
	// control plane abandoned (their puts never complete, and the audit
	// reports them).
	Windows, JobsLost int
}

// NewClusterGateway wraps a built cluster (hosts and tenants registered,
// workload not yet run). It installs the cluster's completion hooks and a
// staging dataset replicated on the first min(4, hosts) hosts.
func NewClusterGateway(c *cluster.Cluster, p Params) *ClusterGateway {
	replicas := c.Hosts()
	if replicas > 4 {
		replicas = 4
	}
	hosts := make([]int, replicas)
	for i := range hosts {
		hosts[i] = i
	}
	g := &ClusterGateway{
		C: c, P: p,
		Dataset: c.AddDataset(hosts),
		jobPuts: make(map[int][]int),
	}
	c.OnJobDone = g.jobDone
	c.OnJobLost = g.jobLost
	return g
}

// Put submits a burst of PUTs for one tenant at virtual time at. Each
// object hashes to a destination host; windows are runs of adjacent
// objects within one destination's queue, at most Coalesce objects and
// MaxWindowBytes payload each; every window is one cluster job. Returns
// the put indices in submission order. A batch with any invalid PUT is
// rejected whole.
func (g *ClusterGateway) Put(at sim.Time, tenantID int, objs []PutSpec) ([]int, error) {
	idx, err := g.record(objs)
	if err != nil {
		return nil, err
	}
	// The route (destination host) is the coalescing unit: consistent
	// hashing interleaves destinations in the submission stream, so windows
	// form over per-route queues — adjacency within a route's queue, in
	// arrival order — not over runs in raw key order, which would almost
	// never coalesce at realistic host counts.
	order := make([]int, 0, 16)
	byDst := make(map[int][]int) // destination host → put indices
	for i, o := range objs {
		dst := g.C.HostForKey(FormatKey(o.Bucket, o.Key))
		if _, ok := byDst[dst]; !ok {
			order = append(order, dst)
		}
		byDst[dst] = append(byDst[dst], idx[i])
	}
	limit := g.P.coalesce()
	for _, dst := range order {
		q := byDst[dst]
		for start := 0; start < len(q); {
			end := start + 1
			bytes := g.puts[q[start]].spec.Size
			for end < len(q) && end-start < limit &&
				bytes+g.puts[q[end]].spec.Size <= maxWindowBytes {
				bytes += g.puts[q[end]].spec.Size
				end++
			}
			id := g.C.NextJobID()
			// A window of empty objects still moves its delimiter records;
			// the cluster's transfer start clamps the payload to one
			// byte-equivalent unit, so a zero-byte window completes rather
			// than wedging.
			g.C.Submit(at, tenantID, g.Dataset, dst, float64(bytes), 0)
			g.jobPuts[id] = q[start:end]
			g.Windows++
			start = end
		}
	}
	return idx, nil
}

// jobDone commits a window: every put it carries completes, exactly once
// (the cluster fires this only on committed, non-voided completions).
func (g *ClusterGateway) jobDone(id int, now sim.Time) {
	for _, pi := range g.jobPuts[id] {
		g.complete(pi, now)
	}
}

// jobLost records a window the control plane abandoned.
func (g *ClusterGateway) jobLost(id int, now sim.Time) {
	g.JobsLost++
}

// AuditExactlyOnce verifies the gateway ledger after Run: every PUT
// completed exactly once. It composes with the cluster's own
// VerifyExactlyOnce, which audits the job-level ledger underneath.
func (g *ClusterGateway) AuditExactlyOnce() error {
	if err := g.C.VerifyExactlyOnce(); err != nil {
		return err
	}
	return g.audit()
}
