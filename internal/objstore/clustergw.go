package objstore

import (
	"fmt"

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

	puts    []*putState
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
// the put indices in submission order.
func (g *ClusterGateway) Put(at sim.Time, tenantID int, objs []PutSpec) ([]int, error) {
	type placed struct {
		put int
		dst int
	}
	idx := make([]int, 0, len(objs))
	pending := make([]placed, 0, len(objs))
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
		pi := len(g.puts)
		g.puts = append(g.puts, &putState{spec: o})
		idx = append(idx, pi)
		pending = append(pending, placed{put: pi, dst: g.C.HostForKey(FormatKey(o.Bucket, o.Key))})
	}
	// The route (destination host) is the coalescing unit: consistent
	// hashing interleaves destinations in the submission stream, so windows
	// form over per-route queues — adjacency within a route's queue, in
	// arrival order — not over runs in raw key order, which would almost
	// never coalesce at realistic host counts.
	order := make([]int, 0, 16)
	byDst := make(map[int][]placed)
	for _, pl := range pending {
		if _, ok := byDst[pl.dst]; !ok {
			order = append(order, pl.dst)
		}
		byDst[pl.dst] = append(byDst[pl.dst], pl)
	}
	limit := g.P.coalesce()
	for _, dst := range order {
		q := byDst[dst]
		for start := 0; start < len(q); {
			end := start + 1
			bytes := g.puts[q[start].put].spec.Size
			for end < len(q) && end-start < limit &&
				bytes+g.puts[q[end].put].spec.Size <= maxWindowBytes {
				bytes += g.puts[q[end].put].spec.Size
				end++
			}
			window := make([]int, 0, end-start)
			for _, pl := range q[start:end] {
				window = append(window, pl.put)
			}
			id := g.C.NextJobID()
			// A window of empty objects still moves its delimiter records;
			// the cluster's transfer start clamps the payload to one
			// byte-equivalent unit, so a zero-byte window completes rather
			// than wedging.
			g.C.Submit(at, tenantID, g.Dataset, dst, float64(bytes), 0)
			g.jobPuts[id] = window
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
		g.puts[pi].completions++
		g.puts[pi].doneAt = now
	}
}

// jobLost records a window the control plane abandoned.
func (g *ClusterGateway) jobLost(id int, now sim.Time) {
	g.JobsLost++
}

// ObjectsDone returns delivered object and byte totals.
func (g *ClusterGateway) ObjectsDone() (objects int, bytes float64) {
	for _, ps := range g.puts {
		if ps.completions > 0 {
			objects++
			bytes += float64(ps.spec.Size)
		}
	}
	return objects, bytes
}

// AuditExactlyOnce verifies the gateway ledger after Run: every PUT
// completed exactly once. It composes with the cluster's own
// VerifyExactlyOnce, which audits the job-level ledger underneath.
func (g *ClusterGateway) AuditExactlyOnce() error {
	if err := g.C.VerifyExactlyOnce(); err != nil {
		return err
	}
	for i, ps := range g.puts {
		if ps.completions != 1 {
			return fmt.Errorf("objstore: put %d (%s) completed %d times, want exactly 1",
				i, FormatKey(ps.spec.Bucket, ps.spec.Key), ps.completions)
		}
	}
	return nil
}

// DoneAt returns put i's delivery time (zero if still in flight).
func (g *ClusterGateway) DoneAt(i int) sim.Time { return g.puts[i].doneAt }
