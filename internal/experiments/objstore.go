package experiments

import (
	"fmt"

	"e2edt/internal/chart"
	"e2edt/internal/cluster"
	"e2edt/internal/core"
	"e2edt/internal/metrics"
	"e2edt/internal/objstore"
	"e2edt/internal/sim"
	"e2edt/internal/trace"
	"e2edt/internal/units"
	"e2edt/internal/xfersched"
)

func init() {
	register("S8", ObjectGateway)
}

// s8Workload is the small-file burst every cell moves: one tenant so the
// coalescing knob alone decides window shapes, fixed 24 KB objects so the
// goodput story is about per-object overhead, not size variance.
func s8Workload(objects int) objstore.Workload {
	w := objstore.DefaultWorkload()
	w.Objects = objects
	w.Tenants = 1
	w.MinBytes = 24 << 10
	w.MaxBytes = 24 << 10
	w.ZeroEvery = 0
	w.Seed = 1
	return w
}

// ObjstoreRunSpec is one object-gateway run: a seeded PUT burst through
// the coalescing layer with window size Coalesce, over the single-pair
// gateway or, when Cluster is set, the sharded cluster gateway.
type ObjstoreRunSpec struct {
	Workload objstore.Workload
	Coalesce int
	// Cluster, when non-nil, runs the burst over a cluster of this shape,
	// one slice of it per tenant; nil runs the single pair.
	Cluster *cluster.Config
}

// ObjstoreRunResult is one run's outcome and its replay digest.
type ObjstoreRunResult struct {
	// Objects and Bytes are the delivered totals, each PUT counted once.
	Objects int
	Bytes   float64
	// Windows counts transfer windows (cluster jobs in cluster mode);
	// Lookups and Scans count single-pair metadata operations.
	Windows, Lookups, Scans int
	// Elapsed is virtual seconds from the burst to its last delivery in
	// single-pair mode, and to the drained cluster in cluster mode.
	Elapsed float64
	// FrontCPU is the sending front end's core-seconds, all processes
	// (single pair only).
	FrontCPU float64
	// Drained reports that every window finished within the horizon.
	Drained bool
	// Audit is the exactly-once audit: nil iff every PUT completed once.
	Audit       error
	TraceSHA    string
	TraceEvents uint64
}

// goodput is payload bytes per virtual second over the run.
func (r ObjstoreRunResult) goodput() float64 { return r.Bytes / r.Elapsed }

// clean reports whether the burst drained and passed the audit.
func (r ObjstoreRunResult) clean() bool { return r.Drained && r.Audit == nil }

// objstoreHorizon bounds a single-pair burst's virtual run time.
const objstoreHorizon = 3600 * sim.Second

// RunObjstorePoint builds, runs and audits one object-gateway burst under
// a hashing tracer. Single pair: the burst arrives at 1 s on the LAN
// testbed's scheduler. Cluster: tenant i puts its slice of the burst at
// (1+i) s, the last tenant taking the remainder. Two calls with one spec
// return equal TraceSHA values. The error reports a spec the gateway or
// the cluster rejects; a failed drain or audit is in the result.
func RunObjstorePoint(spec ObjstoreRunSpec) (ObjstoreRunResult, error) {
	h := trace.NewHasher()
	p := objstore.DefaultParams()
	p.Coalesce = spec.Coalesce
	all := spec.Workload.Generate()
	var r ObjstoreRunResult
	if spec.Cluster == nil {
		sys, sched := lanScheduler(h)
		defer sched.Close()
		g := objstore.NewGateway(sched, p, core.Forward)
		start := sim.Time(sim.Second)
		idx, err := g.Put(start, all)
		if err != nil {
			return r, err
		}
		r.Drained = g.RunToCompletion(objstoreHorizon)
		r.Audit = g.AuditExactlyOnce()
		var last sim.Time
		for _, i := range idx {
			last = max(last, g.DoneAt(i))
		}
		r.Objects, r.Bytes = g.ObjectsDone()
		r.Windows, r.Lookups, r.Scans = g.Windows, g.Lookups, g.Scans
		r.Elapsed = float64(last - start)
		r.FrontCPU = sys.TB.Sender.HostCPUReport().Total
	} else {
		eng := sim.NewEngine()
		eng.SetTracer(h)
		c, err := cluster.New(eng, *spec.Cluster)
		if err != nil {
			return r, err
		}
		tenants := max(spec.Workload.Tenants, 1)
		c.AddTenants(tenants)
		g := objstore.NewClusterGateway(c, p)
		per := len(all) / tenants
		for tenant := 0; tenant < tenants; tenant++ {
			at := sim.Time(sim.Duration(1+tenant) * sim.Second)
			lo, hi := tenant*per, (tenant+1)*per
			if tenant == tenants-1 {
				hi = len(all)
			}
			if _, err := g.Put(at, tenant, all[lo:hi]); err != nil {
				return r, err
			}
		}
		// Run returns once the event queue is empty.
		c.Run()
		r.Drained = true
		r.Audit = g.AuditExactlyOnce()
		r.Objects, r.Bytes = g.ObjectsDone()
		r.Windows = g.Windows
		r.Elapsed = float64(eng.Now())
	}
	r.TraceSHA, r.TraceEvents = h.Sum(), h.Events()
	return r, nil
}

// s8Point runs one of S8's fixed specs, which every gateway accepts.
func s8Point(spec ObjstoreRunSpec) ObjstoreRunResult {
	r, err := RunObjstorePoint(spec)
	if err != nil {
		panic(err)
	}
	return r
}

// s8Baseline moves the same payload as one large file through the same
// scheduler — the bulk-transfer regime the paper's testbed was tuned for,
// and the yardstick the small-file cells are measured against.
func s8Baseline(bytes float64) ObjstoreRunResult {
	sys, sched := lanScheduler(nil)
	defer sched.Close()
	j, err := sched.Submit(xfersched.JobSpec{
		ID: "bulk", Tenant: "tenant-00", Protocol: xfersched.ProtoRFTP,
		Bytes: int64(bytes), Files: 1,
	})
	if err != nil {
		panic(err)
	}
	return ObjstoreRunResult{
		Bytes:    bytes,
		Windows:  1,
		Drained:  sched.RunToCompletion(600 * sim.Second),
		Elapsed:  float64(j.Finished - j.Submitted),
		FrontCPU: sys.TB.Sender.HostCPUReport().Total,
	}
}

// ObjectGateway is the small-file regime: the bulk-transfer testbed meets
// an object-storage workload of thousands of KB-scale PUTs, where session
// handshakes and per-object metadata lookups — not wire bandwidth — govern
// goodput. The sweep turns the coalescing knob from per-object (every PUT
// pays its own rftp session and point lookup) to aggressive (adjacent PUTs
// share one delimited stream window and one amortized index scan), and
// gates on coalesced goodput ≥5× per-object at equal payload, with the
// exactly-once audit and a bit-identical replay on the gated cell.
func ObjectGateway() Result {
	const objects = 1024
	ks := []int{1, 16, 256, 4096}

	totalBytes := 0.0
	for _, o := range s8Workload(objects).Generate() {
		totalBytes += float64(o.Size)
	}
	base := s8Baseline(totalBytes)

	outs := make(map[int]ObjstoreRunResult)
	for _, k := range ks {
		outs[k] = s8Point(ObjstoreRunSpec{Workload: s8Workload(objects), Coalesce: k})
	}

	per, co := outs[1], outs[256]

	// Replay: the gated cell once more, bit-identical.
	replay := s8Point(ObjstoreRunSpec{Workload: s8Workload(objects), Coalesce: 256})
	clean, fewest := base.clean() && replay.clean(), objects
	for _, k := range ks {
		clean = clean && outs[k].clean()
		fewest = min(fewest, outs[k].Objects)
	}

	// Cluster mode: same burst from 4 tenants over 16 hosts; coalescing
	// must collapse the job count well below the object count while the
	// audit still holds.
	clWork := s8Workload(512)
	clWork.Tenants = 4
	clCfg := &cluster.Config{Hosts: 16, Shards: 4, DropPct: 5, Seed: 1}
	clPer := s8Point(ObjstoreRunSpec{Workload: clWork, Coalesce: 1, Cluster: clCfg})
	clCo := s8Point(ObjstoreRunSpec{Workload: clWork, Coalesce: 64, Cluster: clCfg})

	tbl := metrics.Table{
		Title: fmt.Sprintf("Object gateway, single pair: %d×24 KB PUTs (%s) vs one bulk file",
			objects, units.FormatBytes(int64(totalBytes))),
		Headers: []string{"cell", "windows", "lookups", "scans", "elapsed", "goodput", "vs bulk", "front CPU"},
	}
	tbl.AddRow("bulk file", "1", "—", "—",
		fmt.Sprintf("%.3fs", base.Elapsed), units.FormatRate(base.goodput()), "100%",
		fmt.Sprintf("%.3fs", base.FrontCPU))
	for _, k := range ks {
		o := outs[k]
		tbl.AddRow(fmt.Sprintf("objects, K=%d", k),
			fmt.Sprintf("%d", o.Windows), fmt.Sprintf("%d", o.Lookups), fmt.Sprintf("%d", o.Scans),
			fmt.Sprintf("%.3fs", o.Elapsed), units.FormatRate(o.goodput()),
			fmt.Sprintf("%.1f%%", 100*o.goodput()/base.goodput()),
			fmt.Sprintf("%.3fs", o.FrontCPU))
	}

	clTbl := metrics.Table{
		Title:   "Object gateway, 16-host cluster: 512×24 KB PUTs from 4 tenants (5% control drop)",
		Headers: []string{"cell", "jobs", "objects", "delivered"},
	}
	clTbl.AddRow("per-object (K=1)", fmt.Sprintf("%d", clPer.Windows), "512", fmt.Sprintf("%d", clPer.Objects))
	clTbl.AddRow("coalesced (K=64)", fmt.Sprintf("%d", clCo.Windows), "512", fmt.Sprintf("%d", clCo.Objects))

	good := metrics.Series{Name: "goodput-vs-coalesce-K"}
	for i, k := range ks {
		good.Add(float64(i), outs[k].goodput()/1e9)
	}

	return Result{
		ID:     "S8",
		Title:  "Object gateway: coalescing the small-file regime",
		Tables: []metrics.Table{tbl, clTbl},
		Series: []metrics.Series{good},
		Chart:  &chart.Options{XLabel: "coalesce knob (0→K=1, 1→16, 2→256, 3→4096)", YLabel: "goodput GB/s"},
		Claims: []Claim{
			gate("every cell drains and passes the exactly-once audit", clean),
			{"objects delivered, fewest of any cell", "", float64(fewest), objects, objects},
			{"K=256 goodput over per-object", "", co.goodput() / per.goodput(), 5, inf},
			{"per-object windows", "", float64(per.Windows), objects, objects},
			{"per-object point lookups", "", float64(per.Lookups), objects, objects},
			{"per-object index scans", "", float64(per.Scans), 0, 0},
			{"K=256 windows, under objects/8", "", float64(co.Windows), -inf, objects/8 - 1},
			{"K=256 index scans", "", float64(co.Scans), 1, inf},
			{"per-object over K=256 front CPU", "", per.FrontCPU / co.FrontCPU, over(1), inf},
			gate("K=256 replay trace identical", co.TraceEvents > 0 && co.TraceSHA == replay.TraceSHA),
			gate("cluster cells pass the exactly-once audit", clPer.Audit == nil && clCo.Audit == nil),
			{"cluster K=1 objects delivered", "", float64(clPer.Objects), 512, 512},
			{"cluster K=64 objects delivered", "", float64(clCo.Objects), 512, 512},
			{"cluster K=1 jobs", "", float64(clPer.Windows), 512, 512},
			{"cluster K=1 over K=64 jobs", "", float64(clPer.Windows) / float64(clCo.Windows), 4, inf},
		},
		Notes: []string{
			"every 24 KB PUT pays a session handshake (~0.33 ms) and a point metadata lookup in per-object mode, so the wire idles while the control plane grinds",
			"coalescing replaces sessions and point lookups with shared windows and amortized index scans — batching the metadata path is where the CPU gap closes",
		},
	}
}
