// Package fluid implements a generalized max-min fair fluid-flow model.
//
// Subsystem models in this repository (memory controllers, interconnect
// links, NICs, CPU cores, storage devices) are expressed as resources with a
// finite capacity. Data streams are flows that consume capacity on every
// resource they cross, scaled by a per-resource coefficient: a flow running
// at rate R consumes coeff×R on each resource it uses. Coefficients encode
// data-path facts such as "a TCP send crosses the source memory controller
// three times (application read + copy read + copy write)" or "this thread
// spends k core-seconds per byte of protocol processing".
//
// Solve performs weighted progressive filling: all unfrozen flows rise
// proportionally to their weights until a resource saturates or a flow hits
// its demand cap, those flows freeze, and filling continues. The result is
// the weighted max-min fair allocation, the standard fluid approximation for
// bandwidth sharing in networks and memory systems.
//
// # Flow classes
//
// A flow may stand for k identical member streams (NewFlowClass, SetMembers):
// Demand and Weight are per member, the class competes with effective weight
// Weight×members, and the solved aggregate Rate() is members×MemberRate().
// Because every member of a class crosses the same resources with the same
// coefficients and weight, the max-min allocation splits the class rate
// evenly — MemberRate() is the exact per-stream disaggregation. Collapsing k
// same-path/same-weight flows into one class flow shrinks both the solver
// population and the dirty scan from O(streams) to O(classes).
//
// # Bottleneck subgraphs
//
// The flow/resource bipartite graph is partitioned into connected components
// (rebuilt on every structural Solve). Progressive filling is purely
// component-local — a component's rates depend only on its own flows and
// resources — so Resolve refills just the components containing a changed
// flow or resource and proves the rest fixed-point stable by construction:
// their inputs are unchanged and the deterministic per-component fill would
// reproduce the stored rates bit for bit.
package fluid

import (
	"fmt"
	"math"
)

// Resource is a capacity-constrained component: a link, a memory controller,
// a CPU core, a storage device. Capacity is in resource units per second
// (bytes/s for bandwidth-like resources, core-seconds/s — i.e. 1.0 — for a
// CPU core).
type Resource struct {
	Name     string
	Capacity float64

	// load is the solved aggregate consumption, maintained by Solve.
	load float64
	// index is the resource's position in its network, for solver arrays.
	index int
}

// Load returns the aggregate consumption on the resource from the most
// recent Solve, in resource units per second.
func (r *Resource) Load() float64 { return r.load }

// Index returns the resource's registration position in its network. It is
// stable for the resource's lifetime, which makes it a deterministic key
// for route signatures and flow-class pooling.
func (r *Resource) Index() int { return r.index }

// Utilization returns Load/Capacity, or 0 for zero-capacity resources.
func (r *Resource) Utilization() float64 {
	if r.Capacity <= 0 {
		return 0
	}
	return r.load / r.Capacity
}

// Usage binds a flow to a resource: the flow consumes Coeff×rate on
// Resource. Tag labels the consumption for accounting (e.g. "sys", "copy",
// "user") and may be empty.
type Usage struct {
	Resource *Resource
	Coeff    float64
	Tag      string
}

// Flow is a fluid stream, or a class of identical member streams. Demand and
// Weight are per member; rate is computed by Network.Solve.
type Flow struct {
	Name   string
	Demand float64 // per-member upper bound on rate; math.Inf(1) if unbounded
	Weight float64 // per-member share weight for max-min fairness; must be > 0
	Uses   []Usage

	// members is the stream multiplicity (≥1). The class competes with
	// effective weight Weight×members and Rate() aggregates all members.
	members int
	// attached counts member transfers bound via Sim.StartMember.
	attached int
	// index is the flow's position in its network, for O(1) removal.
	index int

	rate       float64 // aggregate: members × memberRate
	memberRate float64
	frozen     bool
}

// Rate returns the solved aggregate rate in flow units (bytes) per second,
// summed over all members of the class.
func (f *Flow) Rate() float64 { return f.rate }

// MemberRate returns the solved rate of one member stream. For a plain flow
// (members==1) it equals Rate().
func (f *Flow) MemberRate() float64 { return f.memberRate }

// Members returns the stream multiplicity of the class (1 for plain flows).
func (f *Flow) Members() int { return f.members }

// Use adds a resource the flow consumes, with the given coefficient.
// Non-positive coefficients are ignored: they denote "does not touch".
func (f *Flow) Use(r *Resource, coeff float64) *Flow {
	return f.UseTagged(r, coeff, "")
}

// UseTagged adds a resource consumption labelled with an accounting tag.
func (f *Flow) UseTagged(r *Resource, coeff float64, tag string) *Flow {
	if r == nil {
		panic("fluid: Use with nil resource")
	}
	if coeff > 0 {
		f.Uses = append(f.Uses, Usage{Resource: r, Coeff: coeff, Tag: tag})
	}
	return f
}

// alwaysFullSolve makes every Resolve run a from-scratch Solve. Only the
// differential oracle tests set it (export_test.go), to replay whole runs
// through the reference solve and compare them bit for bit.
var alwaysFullSolve bool

// SolverStats counts how Resolve calls were satisfied.
type SolverStats struct {
	// FullSolves is the number of complete progressive-filling runs.
	FullSolves uint64
	// PartialSolves counts Resolve calls satisfied by refilling only the
	// bottleneck subgraphs (connected components) containing a change.
	PartialSolves uint64
	// ComponentSolves is the number of per-component fill passes, across
	// both full and partial solves.
	ComponentSolves uint64
	// FastResolves counts single-flow demand updates absorbed without a
	// solve because the demand cap was non-binding before and after.
	FastResolves uint64
	// Skips counts Resolve calls where nothing had changed since the last
	// Solve.
	Skips uint64
}

// Network is a set of resources and the flows crossing them.
type Network struct {
	resources []*Resource
	flows     []*Flow

	// residual and sumW are solver scratch, reused across Solve calls so
	// the hot path does not allocate.
	residual []float64
	sumW     []float64

	// Connected-component partition of the flow/resource bipartite graph,
	// rebuilt by every full Solve. compOf maps a resource index to a dense
	// component id; flowComp maps a flow index (-1 for flows crossing no
	// resource). flowOrder/resOrder group flow and resource indices by
	// component (stable within a component), with flows that cross nothing
	// in a trailing bucket at flowOff[ncomp]..flowOff[ncomp+1].
	compOf    []int32
	flowComp  []int32
	ncomp     int
	flowOrder []int32
	flowOff   []int32
	resOrder  []int32
	resOff    []int32
	ufParent  []int32 // union-find scratch
	rootID    []int32 // dense component ids per union-find root
	compCnt   []int32 // counting-sort scratch

	// Dirty-scan and partial-solve scratch.
	dirtyF    []int32
	dirtyR    []int32
	compDirty []bool
	compList  []int32
	bucketHit []int32

	// Snapshot of every solver input at the last Solve. Resolve diffs the
	// live state against it to decide whether a re-solve is needed, which
	// also catches direct writes to Flow.Demand/Weight and
	// Resource.Capacity that bypass the Sim setters.
	solved      bool
	snapFlows   []*Flow
	snapDemand  []float64
	snapWeight  []float64
	snapMembers []int32
	snapUses    []int // len(Flow.Uses); catches Use() after a solve
	snapRes     []*Resource
	snapCap     []float64

	stats   SolverStats
	removed int // retired-resource count; keys unique negative indices
}

// NewNetwork returns an empty network.
func NewNetwork() *Network { return &Network{} }

// AddResource creates and registers a resource. Capacity must be
// non-negative; zero capacity models a disabled component.
func (n *Network) AddResource(name string, capacity float64) *Resource {
	if capacity < 0 || math.IsNaN(capacity) {
		panic(fmt.Sprintf("fluid: invalid capacity %v for %s", capacity, name))
	}
	r := &Resource{Name: name, Capacity: capacity, index: len(n.resources)}
	n.resources = append(n.resources, r)
	return r
}

// NewFlow creates and registers a flow with the given demand cap. Use
// math.Inf(1) for an unbounded flow. The default weight is 1.
func (n *Network) NewFlow(name string, demand float64) *Flow {
	return n.NewFlowClass(name, demand, 1)
}

// NewFlowClass creates and registers a flow standing for members identical
// streams. demand is the per-member demand cap.
func (n *Network) NewFlowClass(name string, demand float64, members int) *Flow {
	if demand < 0 || math.IsNaN(demand) {
		panic(fmt.Sprintf("fluid: invalid demand %v for %s", demand, name))
	}
	if members < 1 {
		panic(fmt.Sprintf("fluid: invalid member count %d for %s", members, name))
	}
	f := &Flow{Name: name, Demand: demand, Weight: 1, members: members, index: len(n.flows)}
	n.flows = append(n.flows, f)
	return f
}

// SetMembers changes a class's stream multiplicity. The dirty scan picks the
// change up on the next Resolve, exactly like a demand or weight write.
func (n *Network) SetMembers(f *Flow, members int) {
	if members < 1 {
		panic(fmt.Sprintf("fluid: invalid member count %d for %s", members, f.Name))
	}
	f.members = members
}

// Registered reports whether f is currently part of the network. A flow
// detached by its last member's completion stays false until re-created;
// callers pooling jobs onto shared flows must check before joining, because
// an unregistered flow is invisible to the solver and never earns a rate.
func (n *Network) Registered(f *Flow) bool {
	i := f.index
	return i >= 0 && i < len(n.flows) && n.flows[i] == f
}

// RemoveFlow unregisters a flow. Its last solved rate becomes zero.
func (n *Network) RemoveFlow(f *Flow) {
	i := f.index
	if i < 0 || i >= len(n.flows) || n.flows[i] != f {
		return // already removed, or foreign flow
	}
	copy(n.flows[i:], n.flows[i+1:])
	n.flows[len(n.flows)-1] = nil
	n.flows = n.flows[:len(n.flows)-1]
	for j := i; j < len(n.flows); j++ {
		n.flows[j].index = j
	}
	f.index = -1
	f.rate = 0
	f.memberRate = 0
}

// RemoveResource unregisters a resource that no registered flow crosses
// any more — per-session state (thread limiters, for one) that would
// otherwise accumulate forever and drag every structural solve, which
// scans all resources, toward quadratic cost under small-job churn.
// Accumulated usage accounting survives: the resource keeps a unique
// (negative) index so usage reports stay deterministically ordered.
// Removing a resource still in use is a caller bug and panics.
func (n *Network) RemoveResource(r *Resource) {
	i := r.index
	if i < 0 || i >= len(n.resources) || n.resources[i] != r {
		return // already removed, or foreign resource
	}
	for _, f := range n.flows {
		for _, u := range f.Uses {
			if u.Resource == r {
				panic(fmt.Sprintf("fluid: removing resource %s still used by flow %s", r.Name, f.Name))
			}
		}
	}
	copy(n.resources[i:], n.resources[i+1:])
	n.resources[len(n.resources)-1] = nil
	n.resources = n.resources[:len(n.resources)-1]
	for j := i; j < len(n.resources); j++ {
		n.resources[j].index = j
	}
	n.removed++
	r.index = -1 - n.removed
	r.load = 0
}

// Flows returns the registered flows (shared slice; do not mutate).
func (n *Network) Flows() []*Flow { return n.flows }

// Resources returns the registered resources (shared slice; do not mutate).
func (n *Network) Resources() []*Resource { return n.resources }

const eps = 1e-12

// growI32 returns buf resized to n, reusing its backing array when large
// enough.
func growI32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// rebuildPartition recomputes the connected components of the flow/resource
// bipartite graph. It is a pure function of the structure (populations and
// Uses), so the incremental and from-scratch paths always agree on the
// partition.
func (n *Network) rebuildPartition() {
	nr := len(n.resources)
	nf := len(n.flows)
	uf := growI32(n.ufParent, nr)
	for i := range uf {
		uf[i] = int32(i)
	}
	find := func(i int32) int32 {
		for uf[i] != i {
			uf[i] = uf[uf[i]] // path halving
			i = uf[i]
		}
		return i
	}
	for _, f := range n.flows {
		if len(f.Uses) == 0 {
			continue
		}
		a := find(int32(f.Uses[0].Resource.index))
		for _, u := range f.Uses[1:] {
			if b := find(int32(u.Resource.index)); b != a {
				uf[b] = a
			}
		}
	}
	n.ufParent = uf

	// Dense component ids, assigned in ascending resource-index order so
	// the numbering is deterministic.
	compOf := growI32(n.compOf, nr)
	rootID := growI32(n.rootID, nr)
	for i := range rootID {
		rootID[i] = -1
	}
	next := int32(0)
	for i := 0; i < nr; i++ {
		r := find(int32(i))
		if rootID[r] < 0 {
			rootID[r] = next
			next++
		}
		compOf[i] = rootID[r]
	}
	n.compOf, n.rootID = compOf, rootID
	n.ncomp = int(next)

	flowComp := growI32(n.flowComp, nf)
	for i, f := range n.flows {
		if len(f.Uses) == 0 {
			flowComp[i] = -1
		} else {
			flowComp[i] = compOf[f.Uses[0].Resource.index]
		}
	}
	n.flowComp = flowComp

	// Counting sort (stable) groups flow and resource indices by component.
	cnt := growI32(n.compCnt, n.ncomp+1) // +1: no-uses bucket
	for i := range cnt {
		cnt[i] = 0
	}
	for _, c := range flowComp {
		if c < 0 {
			cnt[n.ncomp]++
		} else {
			cnt[c]++
		}
	}
	flowOff := growI32(n.flowOff, n.ncomp+2)
	flowOff[0] = 0
	for i := 0; i <= n.ncomp; i++ {
		flowOff[i+1] = flowOff[i] + cnt[i]
		cnt[i] = flowOff[i]
	}
	flowOrder := growI32(n.flowOrder, nf)
	for i, c := range flowComp {
		b := c
		if b < 0 {
			b = int32(n.ncomp)
		}
		flowOrder[cnt[b]] = int32(i)
		cnt[b]++
	}
	n.flowOff, n.flowOrder = flowOff, flowOrder

	for i := range cnt[:n.ncomp] {
		cnt[i] = 0
	}
	for _, c := range compOf {
		cnt[c]++
	}
	resOff := growI32(n.resOff, n.ncomp+1)
	resOff[0] = 0
	for i := 0; i < n.ncomp; i++ {
		resOff[i+1] = resOff[i] + cnt[i]
		cnt[i] = resOff[i]
	}
	resOrder := growI32(n.resOrder, nr)
	for i, c := range compOf {
		resOrder[cnt[c]] = int32(i)
		cnt[c]++
	}
	n.resOff, n.resOrder, n.compCnt = resOff, resOrder, cnt
}

// Solve computes the weighted max-min fair rate for every registered flow
// and the resulting load on every resource.
//
// Implementation: the flow/resource graph is partitioned into connected
// components and each component is filled independently by weighted
// progressive filling with incremental bookkeeping. residual[i] tracks each
// resource's remaining capacity after frozen flows; sumW[i] tracks
// Σ coeff×weight×members over unfrozen flows crossing it. Freezing a flow
// subtracts its contributions once, so each iteration costs O(component)
// rather than O(resources × flows × uses).
func (n *Network) Solve() {
	n.stats.FullSolves++
	n.rebuildPartition()
	nr := len(n.resources)
	if cap(n.residual) < nr {
		n.residual = make([]float64, nr)
		n.sumW = make([]float64, nr)
	}
	residual, sumW := n.residual[:nr], n.sumW[:nr]
	for ci := 0; ci < n.ncomp; ci++ {
		n.fill(n.flowOrder[n.flowOff[ci]:n.flowOff[ci+1]],
			n.resOrder[n.resOff[ci]:n.resOff[ci+1]], residual, sumW)
	}
	if b := n.flowOrder[n.flowOff[n.ncomp]:n.flowOff[n.ncomp+1]]; len(b) > 0 {
		n.fill(b, nil, residual, sumW)
	}
	n.snapshot()
}

// fill runs progressive filling over one component: the flows (indices into
// n.flows) and resources (indices into n.resources) listed. Rates outside
// the component are untouched; the arithmetic depends only on component
// inputs, which is what makes partial solves bit-identical to full ones.
func (n *Network) fill(fidx, ridx []int32, residual, sumW []float64) {
	n.stats.ComponentSolves++
	for _, ri := range ridx {
		r := n.resources[ri]
		r.load = 0
		residual[ri] = r.Capacity
		sumW[ri] = 0
	}
	unfrozen := 0
	for _, fi := range fidx {
		f := n.flows[fi]
		f.rate = 0
		f.memberRate = 0
		f.frozen = false
		if f.Weight <= 0 {
			panic(fmt.Sprintf("fluid: flow %s has non-positive weight %v", f.Name, f.Weight))
		}
		if f.Demand <= eps {
			f.frozen = true
			continue
		}
		unfrozen++
		ew := f.Weight * float64(f.members)
		for _, u := range f.Uses {
			sumW[u.Resource.index] += u.Coeff * ew
		}
	}

	// freeze fixes a flow's per-member rate and retires its contributions.
	freeze := func(f *Flow, memberRate float64) {
		f.memberRate = memberRate
		f.rate = memberRate * float64(f.members)
		f.frozen = true
		unfrozen--
		ew := f.Weight * float64(f.members)
		for _, u := range f.Uses {
			i := u.Resource.index
			sumW[i] -= u.Coeff * ew
			residual[i] -= u.Coeff * f.rate
			if residual[i] < 0 {
				residual[i] = 0
			}
			if sumW[i] < 0 {
				sumW[i] = 0
			}
		}
	}

	// level is the water level λ: every unfrozen member runs at Weight×λ.
	level := 0.0
	for unfrozen > 0 {
		lambda := math.Inf(1)
		for _, ri := range ridx {
			if sumW[ri] > eps {
				if lr := residual[ri] / sumW[ri]; lr < lambda {
					lambda = lr
				}
			}
		}
		demandLambda := math.Inf(1)
		for _, fi := range fidx {
			f := n.flows[fi]
			if f.frozen {
				continue
			}
			if dl := f.Demand / f.Weight; dl < demandLambda {
				demandLambda = dl
			}
		}

		target := math.Min(lambda, demandLambda)
		if math.IsInf(target, 1) {
			// Unbounded flows with no constraining resource: deliberate
			// infinite rate.
			for _, fi := range fidx {
				if f := n.flows[fi]; !f.frozen {
					f.memberRate = f.Demand
					f.rate = f.Demand * float64(f.members)
					f.frozen = true
					unfrozen--
				}
			}
			break
		}
		if target < level {
			target = level // numerical guard; filling never lowers λ
		}
		level = target
		tol := level + eps*math.Max(1, level)

		frozeAny := false
		// Demand-capped flows freeze at their per-member demand.
		for _, fi := range fidx {
			if f := n.flows[fi]; !f.frozen && f.Demand/f.Weight <= tol {
				freeze(f, f.Demand)
				frozeAny = true
			}
		}
		if lambda <= demandLambda+eps {
			// Saturated resources freeze every unfrozen flow crossing
			// them at Weight×λ per member.
			for _, ri := range ridx {
				if sumW[ri] <= eps {
					continue
				}
				if residual[ri]/sumW[ri] <= tol {
					r := n.resources[ri]
					for _, fi := range fidx {
						f := n.flows[fi]
						if f.frozen {
							continue
						}
						uses := false
						for _, u := range f.Uses {
							if u.Resource == r {
								uses = true
								break
							}
						}
						if uses {
							freeze(f, f.Weight*level)
							frozeAny = true
						}
					}
				}
			}
		}
		if !frozeAny {
			// Defensive: should be unreachable, but avoid an infinite loop.
			for _, fi := range fidx {
				if f := n.flows[fi]; !f.frozen {
					freeze(f, f.Weight*level)
				}
			}
		}
	}

	// Compute resource loads from final rates.
	for _, fi := range fidx {
		f := n.flows[fi]
		for _, u := range f.Uses {
			u.Resource.load += u.Coeff * f.rate
		}
	}
}

// snapshot records the solver inputs the allocation was computed from.
func (n *Network) snapshot() {
	n.snapFlows = append(n.snapFlows[:0], n.flows...)
	n.snapRes = append(n.snapRes[:0], n.resources...)
	if cap(n.snapDemand) < len(n.flows) {
		n.snapDemand = make([]float64, len(n.flows))
		n.snapWeight = make([]float64, len(n.flows))
		n.snapMembers = make([]int32, len(n.flows))
		n.snapUses = make([]int, len(n.flows))
	}
	n.snapDemand = n.snapDemand[:len(n.flows)]
	n.snapWeight = n.snapWeight[:len(n.flows)]
	n.snapMembers = n.snapMembers[:len(n.flows)]
	n.snapUses = n.snapUses[:len(n.flows)]
	for i, f := range n.flows {
		n.snapDemand[i] = f.Demand
		n.snapWeight[i] = f.Weight
		n.snapMembers[i] = int32(f.members)
		n.snapUses[i] = len(f.Uses)
	}
	if cap(n.snapCap) < len(n.resources) {
		n.snapCap = make([]float64, len(n.resources))
	}
	n.snapCap = n.snapCap[:len(n.resources)]
	for i, r := range n.resources {
		n.snapCap[i] = r.Capacity
	}
	n.solved = true
}

// Invalidate forces the next Resolve to run a full Solve. Needed only
// after mutations the dirty scan cannot see: editing a Usage coefficient
// in place, or swapping a Usage's Resource.
func (n *Network) Invalidate() { n.solved = false }

// ResourceUtil is one resource's slice of a Utilization snapshot.
type ResourceUtil struct {
	Name     string
	Capacity float64 // resource units per second
	Load     float64 // solved aggregate consumption
	Demand   float64 // offered load Σ coeff×members×flow.Demand; +Inf if any user is unbounded
	Share    float64 // Load/Capacity; 0 for zero-capacity resources
}

// Saturated reports whether the resource is the (or a) binding constraint:
// its solved load sits at capacity within solver tolerance.
func (u ResourceUtil) Saturated() bool {
	return u.Capacity > 0 && u.Load >= u.Capacity*(1-1e-9)
}

// Utilization returns a per-resource snapshot of the current allocation in
// registration order: solved load against capacity, plus the offered demand
// (what the flows would consume if every demand cap were met). It reads the
// last-solved state and does not itself re-solve; callers that mutated the
// network should Resolve (or Sim.Refresh) first. This is the placer's
// sensor and the -utilz bottleneck-attribution dump.
func (n *Network) Utilization() []ResourceUtil {
	out := make([]ResourceUtil, len(n.resources))
	for i, r := range n.resources {
		out[i] = ResourceUtil{
			Name:     r.Name,
			Capacity: r.Capacity,
			Load:     r.load,
			Share:    r.Utilization(),
		}
	}
	for _, f := range n.flows {
		ed := f.Demand * float64(f.members)
		for _, u := range f.Uses {
			out[u.Resource.index].Demand += u.Coeff * ed
		}
	}
	return out
}

// Stats returns counters describing how Resolve calls were satisfied.
func (n *Network) Stats() SolverStats { return n.stats }

// diff classifies every change since the last snapshot. structural means
// the partition may have moved (populations or Uses changed) and a full
// Solve is required; otherwise n.dirtyF/n.dirtyR list the flow/resource
// indices whose parameters changed. demandOnly reports that every dirty
// flow changed nothing but its demand.
func (n *Network) diff() (structural, demandOnly bool) {
	n.dirtyF = n.dirtyF[:0]
	n.dirtyR = n.dirtyR[:0]
	demandOnly = true
	if len(n.resources) != len(n.snapRes) || len(n.flows) != len(n.snapFlows) {
		return true, false
	}
	for i, r := range n.resources {
		if r != n.snapRes[i] {
			return true, false
		}
		if r.Capacity != n.snapCap[i] {
			n.dirtyR = append(n.dirtyR, int32(i))
		}
	}
	for i, f := range n.flows {
		if f != n.snapFlows[i] || len(f.Uses) != n.snapUses[i] {
			return true, false
		}
		if f.Demand != n.snapDemand[i] || f.Weight != n.snapWeight[i] || int32(f.members) != n.snapMembers[i] {
			n.dirtyF = append(n.dirtyF, int32(i))
			if f.Weight != n.snapWeight[i] || int32(f.members) != n.snapMembers[i] {
				demandOnly = false
			}
		}
	}
	return false, demandOnly
}

// partialSolve refills exactly the components containing a dirty flow or
// resource (per n.dirtyF/n.dirtyR). The frontier argument for leaving every
// other component untouched: fill is deterministic and reads only
// component-local inputs, those inputs are unchanged (the dirty scan proved
// it), so re-running fill there would reproduce the stored rates bit for
// bit. Flows crossing no resource are independent and refill individually.
func (n *Network) partialSolve() {
	n.stats.PartialSolves++
	if cap(n.compDirty) < n.ncomp {
		n.compDirty = make([]bool, n.ncomp)
	}
	dirty := n.compDirty[:n.ncomp]
	n.compList = n.compList[:0]
	n.bucketHit = n.bucketHit[:0]
	for _, fi := range n.dirtyF {
		c := n.flowComp[fi]
		if c < 0 {
			n.bucketHit = append(n.bucketHit, fi)
			continue
		}
		if !dirty[c] {
			dirty[c] = true
			n.compList = append(n.compList, c)
		}
	}
	for _, ri := range n.dirtyR {
		c := n.compOf[ri]
		if !dirty[c] {
			dirty[c] = true
			n.compList = append(n.compList, c)
		}
	}
	// Ascending component order, for reproducible stats and cache locality
	// (insertion sort: the list is tiny and must not allocate).
	for i := 1; i < len(n.compList); i++ {
		for j := i; j > 0 && n.compList[j] < n.compList[j-1]; j-- {
			n.compList[j], n.compList[j-1] = n.compList[j-1], n.compList[j]
		}
	}
	residual := n.residual[:len(n.resources)]
	sumW := n.sumW[:len(n.resources)]
	for _, c := range n.compList {
		n.fill(n.flowOrder[n.flowOff[c]:n.flowOff[c+1]],
			n.resOrder[n.resOff[c]:n.resOff[c+1]], residual, sumW)
		dirty[c] = false
	}
	if len(n.bucketHit) > 0 {
		n.fill(n.bucketHit, nil, residual, sumW)
	}
	// Refresh only the snapshot entries that moved; everything else is
	// still current.
	for _, fi := range n.dirtyF {
		f := n.flows[fi]
		n.snapDemand[fi] = f.Demand
		n.snapWeight[fi] = f.Weight
		n.snapMembers[fi] = int32(f.members)
	}
	for _, ri := range n.dirtyR {
		n.snapCap[ri] = n.resources[ri].Capacity
	}
}

// Resolve re-solves only what changed since the last Solve: nothing on a
// clean network, a single non-binding demand change without any solve (the
// solved rate sits strictly below both old and new caps, so the max-min
// allocation is unchanged), only the dirty bottleneck subgraphs for
// parameter changes, and a full Solve for structural changes (population or
// Uses). It reports whether any solving ran.
func (n *Network) Resolve() bool {
	if alwaysFullSolve || !n.solved {
		n.Solve()
		return true
	}
	structural, demandOnly := n.diff()
	if structural {
		n.Solve()
		return true
	}
	if len(n.dirtyF) == 0 && len(n.dirtyR) == 0 {
		n.stats.Skips++
		return false
	}
	if demandOnly && len(n.dirtyF) == 1 && len(n.dirtyR) == 0 {
		fi := n.dirtyF[0]
		f := n.flows[fi]
		old := n.snapDemand[fi]
		// Margin keeps the fast path well clear of the solver's freeze
		// tolerance, so a from-scratch Solve would take the exact same
		// branches and reproduce the current rates bit for bit.
		margin := 1e-6 * math.Max(1, f.memberRate)
		if math.Min(old, f.Demand) > f.memberRate+margin {
			n.snapDemand[fi] = f.Demand
			n.stats.FastResolves++
			return false
		}
	}
	n.partialSolve()
	return true
}
