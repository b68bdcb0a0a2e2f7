package objstore

import (
	"fmt"
	"math"

	"e2edt/internal/core"
	"e2edt/internal/fluid"
	"e2edt/internal/host"
	"e2edt/internal/numa"
	"e2edt/internal/rftp"
	"e2edt/internal/sim"
	"e2edt/internal/units"
	"e2edt/internal/xfersched"
)

// Params tune the gateway's coalescing layer.
type Params struct {
	// Coalesce is the window size knob — the most adjacent same-tenant
	// objects one rftp session carries. 1 (or 0) is the legacy worst case:
	// every object pays its own session handshake and point lookup.
	Coalesce int
}

// DefaultParams returns the per-object worst case (Coalesce 1).
func DefaultParams() Params { return Params{Coalesce: 1} }

// The metadata cost model: a lean metadata path on the front-end hosts,
// ~45 µs per point lookup at 2.2 GHz, with batched scans paying ~90 µs once
// plus ~1 µs per entry.
const (
	// lookupCycles is one point metadata lookup's CPU cost (hash, index
	// probe, permission check) — paid per object in per-object mode.
	lookupCycles = 100e3
	// scanBaseCycles + n×scanPerEntryCycles is a batched index scan's CPU
	// cost: one amortized scan answers a whole coalesced window's lookups.
	scanBaseCycles, scanPerEntryCycles = 200e3, 2e3
	// entryBytes is one metadata record's footprint, charged to host memory
	// for every record a lookup or scan touches.
	entryBytes = 256
	// maxWindowBytes caps a window's payload so one bulky object cannot
	// drag a whole window's worth of small neighbors behind its transfer.
	maxWindowBytes = 256 * units.MB
)

// coalesce resolves the window-size knob (floor 1).
func (p Params) coalesce() int {
	if p.Coalesce > 1 {
		return p.Coalesce
	}
	return 1
}

// PutSpec is one object PUT arriving at the gateway.
type PutSpec struct {
	Tenant      string
	Bucket, Key string
	Size        int64
}

// Gateway is the single-pair object gateway: PUTs arrive, pay their
// metadata cost on the sender front end's CPU through the fluid model, and
// their payloads are coalesced into rftp batch windows submitted as
// xfersched jobs. See the package comment for why.
type Gateway struct {
	Sys   *core.System
	Sched *xfersched.Scheduler
	P     Params
	Dir   core.Direction

	eng   *sim.Engine
	fl    *fluid.Sim
	mdTh  *host.Thread
	mdBuf *numa.Buffer

	ledger
	pendingWindows int // windows still in their metadata phase
	// Windows counts transfer windows submitted; Lookups and Scans count
	// metadata operations (point vs amortized), the S8 evidence that
	// coalescing batches the metadata path too.
	Windows, Lookups, Scans int
}

// NewGateway builds a gateway over an existing scheduler. The metadata
// service runs as an unpinned process on the sending front-end host (the
// gateway node), so lookups contend with the transfer tool for the same
// cores — exactly the interference the small-file regime is about.
func NewGateway(sched *xfersched.Scheduler, p Params, dir core.Direction) *Gateway {
	sys := sched.Sys
	front := sys.TB.Sender
	if dir == core.Reverse {
		front = sys.TB.Receiver
	}
	proc := front.NewProcess("objstore-md", numa.PolicyDefault, nil)
	return &Gateway{
		Sys: sys, Sched: sched, P: p, Dir: dir,
		eng:   sys.Engine(),
		fl:    sys.TB.Sim,
		mdTh:  proc.NewThread(),
		mdBuf: front.M.InterleavedBuffer("objstore-md"),
	}
}

// Put schedules a burst of object PUTs arriving at virtual time at. The
// burst is cut into coalescing windows — runs of adjacent same-tenant
// objects, at most Coalesce objects and maxWindowBytes payload each — and
// every window pays one metadata operation and one transfer job. Returns
// the put indices, in submission order, for result inspection. A batch
// with any invalid PUT is rejected whole.
func (g *Gateway) Put(at sim.Time, objs []PutSpec) ([]int, error) {
	idx, err := g.record(objs)
	if err != nil {
		return nil, err
	}
	limit := g.P.coalesce()
	for start := 0; start < len(objs); {
		end := start + 1
		bytes := objs[start].Size
		for end < len(objs) && end-start < limit &&
			objs[end].Tenant == objs[start].Tenant &&
			bytes+objs[end].Size <= maxWindowBytes {
			bytes += objs[end].Size
			end++
		}
		window := idx[start:end]
		g.pendingWindows++
		g.eng.At(at, func() { g.startWindow(window) })
		start = end
	}
	return idx, nil
}

// startWindow runs a window's metadata phase, then submits its transfer.
// A window of one pays a point lookup; a coalesced window pays one
// amortized scan for all its records.
func (g *Gateway) startWindow(window []int) {
	var cycles float64
	if len(window) == 1 {
		cycles = lookupCycles
		g.Lookups++
	} else {
		cycles = scanBaseCycles + float64(len(window))*scanPerEntryCycles
		g.Scans++
	}
	id := g.Windows
	g.Windows++
	g.chargeMD(fmt.Sprintf("objstore-md/w%05d", id), cycles,
		float64(len(window))*entryBytes, func(now sim.Time) {
			g.submitWindow(id, window)
		})
}

// chargeMD pays a metadata operation through the fluid model: a flow in
// cycle units, charged to the metadata thread's CPU (so it contends with
// the transfer tool for cores) and to host memory for the records touched.
// done fires when the operation's cycles have been executed.
func (g *Gateway) chargeMD(name string, cycles, bytes float64, done func(now sim.Time)) {
	if cycles <= 0 {
		done(g.eng.Now())
		return
	}
	f := g.fl.NewFlow(name, math.Inf(1))
	g.mdTh.ChargeCPU(f, 1, host.CatSys)
	if bytes > 0 {
		g.mdTh.ChargeMemory(f, g.mdBuf, bytes/cycles, false)
	}
	tr := &fluid.Transfer{Flow: f, Remaining: cycles, OnComplete: done}
	g.fl.Start(tr)
}

// submitWindow hands a window whose metadata phase finished to the
// transfer scheduler as one coalesced batch job.
func (g *Gateway) submitWindow(id int, window []int) {
	g.pendingWindows--
	specs := make([]rftp.ObjectSpec, len(window))
	for k, pi := range window {
		s := g.puts[pi].spec
		specs[k] = rftp.ObjectSpec{Key: FormatKey(s.Bucket, s.Key), Size: s.Size}
	}
	spec := xfersched.JobSpec{
		ID:       fmt.Sprintf("objw-%05d", id),
		Tenant:   g.puts[window[0]].spec.Tenant,
		Protocol: xfersched.ProtoRFTP,
		Dir:      g.Dir,
		Objects:  specs,
		OnObject: func(k int, now sim.Time) { g.complete(window[k], now) },
	}
	if _, err := g.Sched.Submit(spec); err != nil {
		panic(fmt.Sprintf("objstore: submit window %d: %v", id, err))
	}
}

// AllDone reports whether every PUT's window has cleared both its metadata
// phase and its transfer.
func (g *Gateway) AllDone() bool {
	return g.pendingWindows == 0 && g.Sched.AllDone()
}

// RunToCompletion advances virtual time until every PUT completes or the
// limit elapses, reporting whether all completed.
func (g *Gateway) RunToCompletion(limit sim.Duration) bool {
	deadline := g.eng.Now() + sim.Time(limit)
	for !g.AllDone() && g.eng.Now() < deadline {
		step := sim.Time(sim.Second)
		if rem := deadline - g.eng.Now(); rem < step {
			step = rem
		}
		g.eng.RunUntil(g.eng.Now() + step)
	}
	return g.AllDone()
}

// AuditExactlyOnce verifies the gateway's delivery ledger: every PUT
// completed exactly once — no lost object, no duplicate completion
// callback across windows, retries and attempts.
func (g *Gateway) AuditExactlyOnce() error { return g.audit() }
