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
// # Change tracking
//
// Solver inputs change only through setters: Network.SetDemand, SetWeight
// and SetCapacity, and Flow.Use/UseTagged. The first change to a solved flow
// queues it, with the inputs the last solve used, on the network's dirty
// list; a capacity write seeds its resource directly. Resolve walks only
// those queues and the flows registered since the last solve, so its cost
// follows the change, not the size of the network. Editing a Usage in place
// is the one change no setter sees: it needs Invalidate. UseTagged merges a
// repeated (resource, tag) charge into the flow's existing entry, but never
// into an entry the last solve linked, so a merge is never such an edit.
//
// # Bottleneck subgraphs
//
// Every resource keeps a list of the registered flows crossing it, so the
// connected components of the flow/resource bipartite graph are found by a
// walk rather than a global partition. Progressive filling is purely
// component-local — a component's rates depend only on its own flows and
// resources — so Resolve walks out from the resources a change touched
// (flow arrivals and departures included) and refills just those
// components. The rest are fixed-point stable by construction: their flow
// order and inputs are unchanged, and the deterministic per-component fill
// would reproduce the stored rates bit for bit.
package fluid

import (
	"fmt"
	"math"
	"slices"
)

// Resource is a capacity-constrained component: a link, a memory controller,
// a CPU core, a storage device. Capacity is in resource units per second
// (bytes/s for bandwidth-like resources, core-seconds/s — i.e. 1.0 — for a
// CPU core).
type Resource struct {
	Name string

	// capacity is written only through Network.SetCapacity.
	capacity float64
	// load is the solved aggregate consumption, maintained by Solve.
	load float64
	// index is the resource's position in its network, for solver arrays.
	// users heads the list of linked flows crossing it, in the network's
	// edge pool. Both are int32, so a Resource stays in its allocation
	// size class; its visit mark lives in Network.rmark.
	index int32
	users int32
	// hint holds the Uses positions of the last two entries appended for
	// this resource, by whichever flow. UseTagged checks an entry's content
	// before merging into it, so a stale hint can only miss. It fills the
	// Resource's 48-byte size class.
	hint [2]int32
}

// Capacity returns the resource's capacity in resource units per second.
func (r *Resource) Capacity() float64 { return r.capacity }

// Load returns the aggregate consumption on the resource from the most
// recent Solve, in resource units per second.
func (r *Resource) Load() float64 { return r.load }

// Utilization returns Load/Capacity, or 0 for zero-capacity resources.
func (r *Resource) Utilization() float64 {
	if r.capacity <= 0 {
		return 0
	}
	return r.load / r.capacity
}

// Usage binds a flow to a resource: the flow consumes Coeff×rate on
// Resource. Tag labels the consumption for accounting (e.g. "sys", "copy",
// "user"). An empty tag makes the entry a solver-only constraint (a thread's
// one-core limiter, for one): it shapes rates but is not accounted.
type Usage struct {
	Resource *Resource
	Coeff    float64
	Tag      string
}

// Flow is a fluid stream; its rate is computed by Network.Solve.
type Flow struct {
	Name string
	// Uses lists what the flow consumes, one entry per distinct (resource,
	// tag) pair as far as UseTagged can merge them. Add to it with
	// Use/UseTagged; an in-place edit is invisible to Resolve and needs
	// Invalidate.
	Uses []Usage

	// demand is the upper bound on rate (math.Inf(1) if unbounded) and
	// weight the max-min share weight (> 0). Both are written only through
	// the Network setters.
	demand, weight float64
	// net is the network the flow was registered in; Use reports to it.
	net  *Network
	rate float64
	// index is the flow's position in its network, for O(1) removal.
	index int

	// Solver state: edges heads the flow's chain in the edge pool, mark is
	// a visit epoch, dirty says the flow is queued in net.dirty, and linked
	// is how many Uses entries the last link saw (0 while unlinked).
	edges  int32
	mark   uint32
	frozen bool
	dirty  bool
	linked int32
}

// Demand returns the demand cap.
func (f *Flow) Demand() float64 { return f.demand }

// Weight returns the fair-share weight.
func (f *Flow) Weight() float64 { return f.weight }

// Rate returns the solved rate in flow units (bytes) per second.
func (f *Flow) Rate() float64 { return f.rate }

// Use adds a resource the flow consumes, with the given coefficient.
// Non-positive coefficients are ignored: they denote "does not touch". On a
// flow the last solve linked, the next Resolve relinks it.
func (f *Flow) Use(r *Resource, coeff float64) *Flow {
	return f.UseTagged(r, coeff, "")
}

// UseTagged adds a resource consumption labelled with an accounting tag.
// A charge to a (resource, tag) pair the flow already holds adds coeff into
// that entry, so a flow built from many small charges carries one entry per
// distinct pair, not one per charge. Only entries appended since the last
// solve linked the flow are merged into; r's hint finds them in O(1), and a
// pair it misses gets a second entry, which costs space but not accuracy.
func (f *Flow) UseTagged(r *Resource, coeff float64, tag string) *Flow {
	if r == nil {
		panic("fluid: Use with nil resource")
	}
	if coeff <= 0 {
		return f
	}
	if f.net != nil {
		f.net.record(f)
	}
	for _, s := range r.hint {
		if s >= f.linked && int(s) < len(f.Uses) {
			if u := &f.Uses[s]; u.Resource == r && u.Tag == tag {
				u.Coeff += coeff
				return f
			}
		}
	}
	r.hint[0], r.hint[1] = int32(len(f.Uses)), r.hint[0]
	f.Uses = append(f.Uses, Usage{Resource: r, Coeff: coeff, Tag: tag})
	return f
}

// alwaysFullSolve makes every Resolve run a from-scratch Solve. Only the
// differential oracle tests set it (export_test.go), to replay whole runs
// through the reference solve and compare them bit for bit.
var alwaysFullSolve bool

// SolverStats counts how Resolve calls were satisfied.
type SolverStats struct {
	// FullSolves counts from-scratch solves, which relink every flow and
	// refill every component: the first Resolve, the first after
	// Invalidate (Sim.Refresh), every Resolve under the oracle hook, and
	// direct Solve calls.
	FullSolves uint64
	// PartialSolves counts Resolve calls satisfied by refilling only the
	// bottleneck subgraphs (connected components) a change touched: setter
	// writes, flow arrivals and departures, and Uses appended to a linked
	// flow.
	PartialSolves uint64
	// ComponentSolves is the number of fill passes, across both full and
	// partial solves: one per refilled component that has a flow, plus one
	// per refilled flow that crosses no resource. Idle resources only have
	// their load zeroed and are not counted.
	ComponentSolves uint64
	// FastResolves is always 0: Resolve has no path that absorbs a change
	// without refilling. It stays only because the repository benchmark
	// reports it.
	FastResolves uint64
	// Skips counts Resolve calls where nothing had changed since the last
	// Solve.
	Skips uint64
	// Visited is the solver's walk work: every queued flow change and
	// arrival Resolve inspected, every refill seed, lone flow, and flow and
	// resource of a refilled component. A Resolve adds work proportional to
	// what changed, however large the network is.
	Visited uint64
}

// Network is a set of resources and the flows crossing them.
type Network struct {
	resources []*Resource
	flows     []*Flow

	// residual and sumW are solver scratch, reused across Solve calls so
	// the hot path does not allocate.
	residual []float64
	sumW     []float64

	// edges is the pool behind every user list and flow chain (see edge);
	// freeEdge heads its free list. flows[:nlinked] are linked; flows
	// registered since the last solve sit after them and are linked by the
	// next Resolve, once their Uses are built. rmark[i] is the visit mark
	// of resources[i] (see nextEpoch).
	edges    []edge
	freeEdge int32
	nlinked  int
	rmark    []uint32
	epoch    uint32

	// dirty queues the linked flows changed since the last solve, each with
	// the inputs that solve used (see record).
	dirty []change

	// Seeds of the next refill: resources whose component a change
	// touched (departures and capacity writes queue them at once), and
	// touched flows that cross no resource. compF and compR are the walk's
	// per-component scratch.
	touched []*Resource
	lone    []*Flow
	compF   []int32
	compR   []int32

	solved  bool // false until the first Solve and after Invalidate
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
	r := &Resource{Name: name, capacity: capacity, index: int32(len(n.resources))}
	n.resources = append(n.resources, r)
	return r
}

// NewFlow creates and registers a flow with the given demand cap. Use
// math.Inf(1) for an unbounded flow. The default weight is 1.
func (n *Network) NewFlow(name string, demand float64) *Flow {
	if demand < 0 || math.IsNaN(demand) {
		panic(fmt.Sprintf("fluid: invalid demand %v for %s", demand, name))
	}
	f := &Flow{Name: name, demand: demand, weight: 1, net: n, index: len(n.flows)}
	n.flows = append(n.flows, f)
	return f
}

// change is a queued flow with the demand and weight the last solve used.
type change struct {
	flow           *Flow
	demand, weight float64
}

// record queues f on the dirty list at its first change since the last
// solve. A flow the last solve did not link needs no entry: the next Resolve
// links it with whatever it holds by then.
func (n *Network) record(f *Flow) {
	i := f.index
	if f.dirty || i < 0 || i >= n.nlinked || n.flows[i] != f {
		return
	}
	f.dirty = true
	n.dirty = append(n.dirty, change{f, f.demand, f.weight})
}

// SetDemand changes a flow's demand cap (math.Inf(1) for none).
// Like every Network setter it does not solve: the next Resolve sees the
// change. Sim.SetDemand also accrues progress and reschedules.
func (n *Network) SetDemand(f *Flow, demand float64) {
	if demand < 0 || math.IsNaN(demand) {
		panic(fmt.Sprintf("fluid: invalid demand %v for %s", demand, f.Name))
	}
	n.record(f)
	f.demand = demand
}

// SetWeight changes a flow's fair-share weight, which must be positive.
func (n *Network) SetWeight(f *Flow, weight float64) {
	if weight <= 0 || math.IsNaN(weight) {
		panic(fmt.Sprintf("fluid: invalid weight %v for %s", weight, f.Name))
	}
	n.record(f)
	f.weight = weight
}

// SetCapacity changes a resource's capacity and queues its component for
// the next Resolve. Rewriting the current value is no change; a write that
// restores the value of the last solve still refills the component, which
// reproduces the same rates.
func (n *Network) SetCapacity(r *Resource, capacity float64) {
	if capacity < 0 || math.IsNaN(capacity) {
		panic(fmt.Sprintf("fluid: invalid capacity %v for %s", capacity, r.Name))
	}
	if capacity == r.capacity {
		return
	}
	r.capacity = capacity
	if r.index >= 0 {
		n.touched = append(n.touched, r)
	}
}

// RemoveFlow unregisters a flow. Its last solved rate becomes zero.
func (n *Network) RemoveFlow(f *Flow) {
	i := f.index
	if i < 0 || i >= len(n.flows) || n.flows[i] != f {
		return // already removed, or foreign flow
	}
	if i < n.nlinked {
		n.nlinked--
		n.unlink(f)
	}
	copy(n.flows[i:], n.flows[i+1:])
	n.flows[len(n.flows)-1] = nil
	n.flows = n.flows[:len(n.flows)-1]
	for j := i; j < len(n.flows); j++ {
		n.flows[j].index = j
	}
	f.index = -1
	f.rate = 0
}

// RemoveResource unregisters a resource that no registered flow crosses
// any more — per-session state (thread limiters, for one) that would
// otherwise accumulate forever, growing the solver's per-resource arrays
// and every full solve under small-job churn.
// Accumulated usage accounting survives: the resource keeps a unique
// (negative) index so usage reports stay deterministically ordered.
// Removing a resource still in use is a caller bug and panics.
func (n *Network) RemoveResource(r *Resource) {
	i := int(r.index)
	if i < 0 || i >= len(n.resources) || n.resources[i] != r {
		return // already removed, or foreign resource
	}
	var user *Flow
	if r.users != 0 {
		user = n.edges[r.users].flow
	}
	for _, f := range n.flows[n.nlinked:] {
		for _, u := range f.Uses {
			if u.Resource == r {
				user = f
			}
		}
	}
	if user != nil {
		panic(fmt.Sprintf("fluid: removing resource %s still used by flow %s", r.Name, user.Name))
	}
	copy(n.resources[i:], n.resources[i+1:])
	n.resources[len(n.resources)-1] = nil
	n.resources = n.resources[:len(n.resources)-1]
	for j := i; j < len(n.resources); j++ {
		n.resources[j].index = int32(j)
	}
	n.removed++
	r.index = int32(-1 - n.removed)
	r.load = 0
}

// Flows returns the registered flows (shared slice; do not mutate).
func (n *Network) Flows() []*Flow { return n.flows }

// Resources returns the registered resources (shared slice; do not mutate).
func (n *Network) Resources() []*Resource { return n.resources }

const eps = 1e-12

// edge records that a flow crosses a resource, once per (flow, resource)
// pair however many Usage entries the flow has there. A resource's users
// form a doubly linked list through prev/next; a flow's edges chain through
// nextOfFlow, which also chains the free list. Ids index Network.edges and
// id 0 is the nil sentinel, so a zero-valued head is an empty list.
type edge struct {
	flow       *Flow
	res        *Resource
	prev, next int32
	nextOfFlow int32
}

// nextEpoch returns a fresh visit mark and makes rmark cover every
// resource. Marks are compared only for equality with the current epoch, so
// a resource that inherits another's slot after a removal shifts indices
// carries an old, harmless mark. On wraparound every mark is cleared, so a
// stale mark can never alias the current one.
func (n *Network) nextEpoch() uint32 {
	if len(n.rmark) < len(n.resources) {
		n.rmark = make([]uint32, 2*len(n.resources))
	}
	n.epoch++
	if n.epoch == 0 {
		clear(n.rmark)
		for _, f := range n.flows {
			f.mark = 0
		}
		n.epoch = 1
	}
	return n.epoch
}

// link adds f to the user list of every resource it crosses. f must have
// no edges.
func (n *Network) link(f *Flow) {
	ep := n.nextEpoch()
	for _, u := range f.Uses {
		r := u.Resource
		if n.rmark[r.index] == ep {
			continue // a second Usage entry on the same resource
		}
		n.rmark[r.index] = ep
		id := n.freeEdge
		if id != 0 {
			n.freeEdge = n.edges[id].nextOfFlow
		} else {
			if len(n.edges) == 0 {
				n.edges = append(n.edges, edge{}) // the nil sentinel
			}
			id = int32(len(n.edges))
			n.edges = append(n.edges, edge{})
		}
		// Field by field: a whole-struct store of an edge costs a bulk
		// write barrier while the collector runs.
		e := &n.edges[id]
		e.flow, e.res, e.prev, e.next, e.nextOfFlow = f, r, 0, r.users, f.edges
		if r.users != 0 {
			n.edges[r.users].prev = id
		}
		r.users, f.edges = id, id
	}
	f.linked = int32(len(f.Uses))
}

// unlink removes f from its resources' user lists, returns its edges to the
// free list, and seeds the next refill with every resource it crossed,
// since f's departure may split their component.
func (n *Network) unlink(f *Flow) {
	for id := f.edges; id != 0; {
		e := &n.edges[id]
		if e.prev != 0 {
			n.edges[e.prev].next = e.next
		} else {
			e.res.users = e.next
		}
		if e.next != 0 {
			n.edges[e.next].prev = e.prev
		}
		n.touched = append(n.touched, e.res)
		// Only the flow pointer is cleared, so a free edge does not keep a
		// departed flow alive; its resource pointer stays until reuse
		// (resources outlive their flows), saving a write barrier per edge
		// while the collector runs.
		next := e.nextOfFlow
		e.flow, e.nextOfFlow = nil, n.freeEdge
		n.freeEdge = id
		id = next
	}
	f.edges, f.linked = 0, 0
}

// seed queues f's component for the next refill.
func (n *Network) seed(f *Flow) {
	if f.edges == 0 {
		n.lone = append(n.lone, f)
	} else {
		n.touched = append(n.touched, n.edges[f.edges].res)
	}
}

// clearSeeds empties both refill queues without keeping their pointers.
func (n *Network) clearSeeds() {
	clear(n.touched)
	clear(n.lone)
	n.touched, n.lone = n.touched[:0], n.lone[:0]
}

// Solve computes the weighted max-min fair rate for every registered flow
// and the resulting load on every resource, from scratch: it relinks every
// flow and refills every component.
//
// Implementation: each connected component of the flow/resource graph is
// filled independently by weighted progressive filling with incremental
// bookkeeping. residual[i] tracks each resource's remaining capacity after
// frozen flows; sumW[i] tracks Σ coeff×weight over unfrozen flows
// crossing it. Freezing a flow subtracts its contributions once, so each
// iteration costs O(component) rather than O(resources × flows × uses).
func (n *Network) Solve() {
	n.stats.FullSolves++
	n.unlinkAll()
	for _, f := range n.flows {
		n.link(f)
		if f.edges == 0 {
			n.lone = append(n.lone, f)
		}
	}
	n.nlinked = len(n.flows)
	n.refill(n.resources)
	n.solved = true
}

// unlinkAll empties every user list, the edge pool and the dirty list, so
// all flows count as unlinked.
func (n *Network) unlinkAll() {
	clear(n.edges)
	n.edges, n.freeEdge, n.nlinked = n.edges[:0], 0, 0
	for _, r := range n.resources {
		r.users = 0
	}
	for _, f := range n.flows {
		f.edges, f.linked = 0, 0
	}
	n.clearSeeds()
	n.clearDirty()
}

// clearDirty empties the dirty list and lowers its flows' flags.
func (n *Network) clearDirty() {
	for _, c := range n.dirty {
		c.flow.dirty = false
	}
	clear(n.dirty)
	n.dirty = n.dirty[:0]
}

// refill runs fill over every component that holds one of seeds, then over
// each queued flow that crosses no resource, and clears both seed queues.
// A component's flow and resource indices are sorted ascending, the order a
// global pass in registration order would visit them in, so the freeze
// order and float summation order do not depend on how the component was
// reached. A seed with no linked user is an idle component: its load is
// zeroed and no fill runs.
func (n *Network) refill(seeds []*Resource) {
	nr := len(n.resources)
	if cap(n.residual) < nr {
		n.residual = make([]float64, nr)
		n.sumW = make([]float64, nr)
	}
	residual, sumW := n.residual[:nr], n.sumW[:nr]
	n.stats.Visited += uint64(len(seeds) + len(n.lone))
	ep := n.nextEpoch()
	for _, s := range seeds {
		if s.index < 0 || n.rmark[s.index] == ep {
			continue // retired since it was queued, or already refilled
		}
		n.rmark[s.index] = ep
		cf, cr := n.compF[:0], append(n.compR[:0], s.index)
		for k := 0; k < len(cr); k++ {
			for id := n.resources[cr[k]].users; id != 0; id = n.edges[id].next {
				f := n.edges[id].flow
				if f.mark == ep {
					continue
				}
				f.mark = ep
				cf = append(cf, int32(f.index))
				for fe := f.edges; fe != 0; fe = n.edges[fe].nextOfFlow {
					if ri := n.edges[fe].res.index; n.rmark[ri] != ep {
						n.rmark[ri] = ep
						cr = append(cr, ri)
					}
				}
			}
		}
		n.compF, n.compR = cf, cr
		n.stats.Visited += uint64(len(cf) + len(cr))
		if len(cf) == 0 {
			s.load = 0
			continue
		}
		slices.Sort(cf)
		slices.Sort(cr)
		n.fill(cf, cr, residual, sumW)
	}
	for _, f := range n.lone {
		n.compF = append(n.compF[:0], int32(f.index))
		n.fill(n.compF, nil, residual, sumW)
	}
	n.clearSeeds()
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
		residual[ri] = r.capacity
		sumW[ri] = 0
	}
	unfrozen := 0
	for _, fi := range fidx {
		f := n.flows[fi]
		f.rate = 0
		f.frozen = false
		if f.demand <= eps {
			f.frozen = true
			continue
		}
		unfrozen++
		for _, u := range f.Uses {
			sumW[u.Resource.index] += u.Coeff * f.weight
		}
	}

	// freeze fixes a flow's rate and retires its contributions.
	freeze := func(f *Flow, rate float64) {
		f.rate = rate
		f.frozen = true
		unfrozen--
		for _, u := range f.Uses {
			i := u.Resource.index
			sumW[i] -= u.Coeff * f.weight
			residual[i] -= u.Coeff * f.rate
			if residual[i] < 0 {
				residual[i] = 0
			}
			if sumW[i] < 0 {
				sumW[i] = 0
			}
		}
	}

	// level is the water level λ: every unfrozen flow runs at Weight×λ.
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
			if dl := f.demand / f.weight; dl < demandLambda {
				demandLambda = dl
			}
		}

		target := math.Min(lambda, demandLambda)
		if math.IsInf(target, 1) {
			// Unbounded flows with no constraining resource: deliberate
			// infinite rate.
			for _, fi := range fidx {
				if f := n.flows[fi]; !f.frozen {
					f.rate = f.demand
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
		// Demand-capped flows freeze at their demand.
		for _, fi := range fidx {
			if f := n.flows[fi]; !f.frozen && f.demand/f.weight <= tol {
				freeze(f, f.demand)
				frozeAny = true
			}
		}
		if lambda <= demandLambda+eps {
			// Saturated resources freeze every unfrozen flow crossing
			// them at Weight×λ.
			for _, ri := range ridx {
				if sumW[ri] <= eps {
					continue
				}
				if residual[ri]/sumW[ri] <= tol {
					// Mark the resource's users, then freeze them in
					// fidx order, which fixes the float summation order.
					ep := n.nextEpoch()
					for id := n.resources[ri].users; id != 0; id = n.edges[id].next {
						n.edges[id].flow.mark = ep
					}
					for _, fi := range fidx {
						if f := n.flows[fi]; !f.frozen && f.mark == ep {
							freeze(f, f.weight*level)
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
					freeze(f, f.weight*level)
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

// Invalidate forces the next Resolve to run a full Solve. Needed only
// after mutations no setter sees: editing a Usage coefficient in place,
// swapping a Usage's Resource, or truncating Uses. It drops every link,
// since the user lists may no longer match the flows' Uses.
func (n *Network) Invalidate() {
	n.solved = false
	n.unlinkAll()
}

// ResourceUtil is one resource's slice of a Utilization snapshot.
type ResourceUtil struct {
	Name     string
	Capacity float64 // resource units per second
	Load     float64 // solved aggregate consumption
	Demand   float64 // offered load Σ coeff×flow.Demand; +Inf if any user is unbounded
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
			Capacity: r.capacity,
			Load:     r.load,
			Share:    r.Utilization(),
		}
	}
	for _, f := range n.flows {
		for _, u := range f.Uses {
			out[u.Resource.index].Demand += u.Coeff * f.demand
		}
	}
	return out
}

// Stats returns counters describing how Resolve calls were satisfied.
func (n *Network) Stats() SolverStats { return n.stats }

// Resolve re-solves only what changed since the last Solve. It walks the
// dirty list, the flows registered since, and the resources queued by
// departures and capacity writes — never the whole network. Nothing changed
// (a flow set back to what the last solve used included): no solve.
// Otherwise only the components touched by a changed flow or resource, an
// arrival or a departure are refilled. It reports whether any solving ran.
func (n *Network) Resolve() bool {
	if alwaysFullSolve || !n.solved {
		n.Solve()
		return true
	}
	for _, c := range n.dirty {
		f := c.flow
		f.dirty = false
		relink := int(f.linked) != len(f.Uses)
		if f.index < 0 || (!relink && f.demand == c.demand && f.weight == c.weight) {
			continue // departed since, or set back to what the last solve used
		}
		if relink {
			n.unlink(f)
			n.link(f)
		}
		n.seed(f)
	}
	n.stats.Visited += uint64(len(n.dirty) + len(n.flows) - n.nlinked)
	clear(n.dirty)
	n.dirty = n.dirty[:0]
	for _, f := range n.flows[n.nlinked:] {
		n.link(f)
		n.seed(f)
	}
	n.nlinked = len(n.flows)
	if len(n.touched) == 0 && len(n.lone) == 0 {
		n.stats.Skips++
		return false
	}
	n.stats.PartialSolves++
	n.refill(n.touched)
	return true
}
