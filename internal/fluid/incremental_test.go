package fluid

import (
	"math"
	"math/rand"
	"testing"
)

// source supplies the random choices of a twin-network run: a seeded
// *rand.Rand in the differential test, fuzzer bytes in the fuzz target.
type source interface {
	Intn(n int) int
	Float64() float64
}

// byteSource draws choices from fuzzer input; once exhausted it yields 0.
type byteSource struct{ b []byte }

func (s *byteSource) next() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

func (s *byteSource) Intn(n int) int   { return int(s.next()) % n }
func (s *byteSource) Float64() float64 { return float64(s.next()) / 256 }

// twin is two structurally identical networks mutated in lockstep: inc is
// driven through Resolve (incremental), ref through from-scratch Solve, so
// every mutation can be checked differentially.
type twin struct {
	inc, ref   *Network
	incF, refF []*Flow
	incR, refR []*Resource
}

func newTwin(src source) *twin {
	tw := &twin{inc: NewNetwork(), ref: NewNetwork()}
	nr := 3 + src.Intn(18)
	for i := 0; i < nr; i++ {
		tw.addResource(src)
	}
	nf := 1 + src.Intn(40)
	for i := 0; i < nf; i++ {
		tw.addFlow(src, 1+src.Intn(6))
	}
	return tw
}

func (tw *twin) addResource(src source) {
	c := math.Pow(10, 6+3*src.Float64()) // 1e6 .. 1e9
	tw.incR = append(tw.incR, tw.inc.AddResource("r", c))
	tw.refR = append(tw.refR, tw.ref.AddResource("r", c))
}

// newFlows registers one flow on each side without recording it.
func (tw *twin) newFlows(src source, uses int) (a, b *Flow) {
	d := math.Inf(1)
	if src.Intn(3) == 0 {
		d = math.Pow(10, 4+4*src.Float64())
	}
	a, b = tw.inc.NewFlow("f", d), tw.ref.NewFlow("f", d)
	w := 0.5 + 2*src.Float64()
	tw.inc.SetWeight(a, w)
	tw.ref.SetWeight(b, w)
	for j := 0; j < uses; j++ {
		tw.use(src, a, b)
	}
	return a, b
}

func (tw *twin) addFlow(src source, uses int) {
	a, b := tw.newFlows(src, uses)
	tw.incF, tw.refF = append(tw.incF, a), append(tw.refF, b)
}

// use appends one random Usage to a twin pair of flows.
func (tw *twin) use(src source, a, b *Flow) {
	ri := src.Intn(len(tw.incR))
	coeff := 0.25 + src.Float64()
	a.Use(tw.incR[ri], coeff)
	b.Use(tw.refR[ri], coeff)
}

// setDemand, setWeight and setCapacity write one input on both sides
// through the Network setters.
func (tw *twin) setDemand(i int, d float64) {
	tw.inc.SetDemand(tw.incF[i], d)
	tw.ref.SetDemand(tw.refF[i], d)
}

func (tw *twin) setWeight(i int, w float64) {
	tw.inc.SetWeight(tw.incF[i], w)
	tw.ref.SetWeight(tw.refF[i], w)
}

func (tw *twin) setCapacity(i int, c float64) {
	tw.inc.SetCapacity(tw.incR[i], c)
	tw.ref.SetCapacity(tw.refR[i], c)
}

// step applies one random mutation to both networks, every one through a
// setter or Use. It reports whether the mutation must be invisible to the
// incremental side, so Resolve must not solve.
func (tw *twin) step(src source) (invisible bool) {
	switch k := src.Intn(16); {
	case k < 5: // demand change, mostly non-binding (the fast path)
		i := src.Intn(len(tw.incF))
		var d float64
		switch src.Intn(4) {
		case 0: // binding: below the current fair share
			d = tw.incF[i].rate * (0.1 + 0.8*src.Float64())
		case 1: // A→B→A: set and restored before Resolve, a no-op
			old := tw.incF[i].demand
			tw.setDemand(i, math.Pow(10, 3+8*src.Float64()))
			d, invisible = old, true
		default: // far above any achievable rate
			d = math.Pow(10, 10+2*src.Float64())
		}
		if d < 0 || math.IsNaN(d) {
			d = 1
		}
		tw.setDemand(i, d)
	case k < 6: // weight change, or one set and restored
		i := src.Intn(len(tw.incF))
		if src.Intn(2) == 0 {
			tw.setWeight(i, 0.5+2*src.Float64())
		} else { // A→B→A on weight: a no-op
			w := tw.incF[i].weight
			tw.setWeight(i, 0.5+2*src.Float64())
			tw.setWeight(i, w)
			invisible = true
		}
	case k < 8: // capacity change, sometimes disabling the resource
		i := src.Intn(len(tw.incR))
		c := math.Pow(10, 6+3*src.Float64())
		if src.Intn(8) == 0 {
			c = 0
		}
		old := tw.incR[i].capacity
		tw.setCapacity(i, c)
		if src.Intn(4) == 0 { // restored: may refill, must not move a rate
			tw.setCapacity(i, old)
		}
	case k < 10 && len(tw.incF) > 1: // departure, which may split a component
		i := src.Intn(len(tw.incF))
		tw.inc.RemoveFlow(tw.incF[i])
		tw.ref.RemoveFlow(tw.refF[i])
		tw.incF = append(tw.incF[:i], tw.incF[i+1:]...)
		tw.refF = append(tw.refF[:i], tw.refF[i+1:]...)
	case k < 12: // arrival crossing 0-4 resources, merging their components
		tw.addFlow(src, src.Intn(5))
	case k < 13: // Use appended to a registered, already solved flow
		i := src.Intn(len(tw.incF))
		tw.use(src, tw.incF[i], tw.refF[i])
	case k < 14: // idle resource arrival
		tw.addResource(src)
	case k < 15: // idle resource departure
		used := map[*Resource]bool{}
		for _, f := range tw.incF {
			for _, u := range f.Uses {
				used[u.Resource] = true
			}
		}
		i := src.Intn(len(tw.incR))
		if used[tw.incR[i]] || len(tw.incR) <= 3 {
			return false
		}
		tw.inc.RemoveResource(tw.incR[i])
		tw.ref.RemoveResource(tw.refR[i])
		tw.incR = append(tw.incR[:i], tw.incR[i+1:]...)
		tw.refR = append(tw.refR[:i], tw.refR[i+1:]...)
	default: // a flow added and removed between two Resolves
		a, b := tw.newFlows(src, 1+src.Intn(3))
		tw.inc.RemoveFlow(a)
		tw.ref.RemoveFlow(b)
		return true
	}
	return invisible
}

// steps applies one mutation, or now and then a short batch for a single
// Resolve to absorb together (a departure beside a non-binding demand
// change, say). It reports whether every mutation had to be invisible.
func (tw *twin) steps(src source) (invisible bool) {
	invisible = tw.step(src)
	if src.Intn(4) == 0 {
		for k := 1 + src.Intn(2); k > 0; k-- {
			invisible = tw.step(src) && invisible
		}
	}
	return invisible
}

// match requires bit-identical rates and loads on the two sides.
func (tw *twin) match(t *testing.T, seed, op int) {
	t.Helper()
	if len(tw.inc.flows) != len(tw.ref.flows) || len(tw.inc.resources) != len(tw.ref.resources) {
		t.Fatalf("seed %d op %d: populations diverged", seed, op)
	}
	for i := range tw.inc.flows {
		if a, b := tw.inc.flows[i].rate, tw.ref.flows[i].rate; a != b {
			t.Fatalf("seed %d op %d: flow %d rate %g (incremental) vs %g (full)", seed, op, i, a, b)
		}
	}
	for i := range tw.inc.resources {
		if a, b := tw.inc.resources[i].load, tw.ref.resources[i].load; a != b {
			t.Fatalf("seed %d op %d: resource %d load %g vs %g", seed, op, i, a, b)
		}
	}
}

// resolveBoth solves both sides after a step and checks them. Only the
// first Resolve of inc may be a full solve, and a step that had to be
// invisible must not solve at all.
func (tw *twin) resolveBoth(t *testing.T, seed, op int, invisible bool) {
	t.Helper()
	if solved := tw.inc.Resolve(); solved && invisible {
		t.Fatalf("seed %d op %d: a change undone before Resolve (a flow added and removed, or a value set and restored) was solved", seed, op)
	}
	tw.ref.Solve()
	tw.match(t, seed, op)
	if st := tw.inc.Stats(); st.FullSolves != 1 {
		t.Fatalf("seed %d op %d: %d full solves, want only the first (%+v)", seed, op, st.FullSolves, st)
	}
}

// TestIncrementalMatchesFullSolve is the randomized differential test for
// the incremental solver: across seeded topologies and mutation sequences
// (demand changes binding and non-binding, weight and capacity changes, values set and restored before a Resolve, flow
// arrivals that merge components and departures that split them, flows
// with no uses, Uses appended to solved flows, idle resources added and
// removed, and flows added and removed between two Resolves), applied one
// at a time or a few per Resolve, Resolve must produce rates and loads
// bit-identical to a from-scratch Solve on an identical twin network,
// without ever falling back to a full solve.
func TestIncrementalMatchesFullSolve(t *testing.T) {
	for seed := 0; seed < 25; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		tw := newTwin(rng)
		tw.resolveBoth(t, seed, -1, false)
		for op := 0; op < 120; op++ {
			tw.resolveBoth(t, seed, op, tw.steps(rng))
		}
		if st := tw.inc.Stats(); st.Skips == 0 && st.FastResolves == 0 {
			t.Fatalf("seed %d: incremental paths never taken (%+v)", seed, st)
		}
	}
}

// FuzzIncrementalSolve decodes its input into a twin network and a
// sequence of mutations, and requires the incremental side to match the
// from-scratch side bit for bit after every one.
func FuzzIncrementalSolve(f *testing.F) {
	f.Add([]byte{4, 6, 1, 2, 3, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{0, 0, 200, 100, 50, 8, 3, 9, 1, 10, 2, 11, 4, 12, 5, 15, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &byteSource{data}
		tw := newTwin(src)
		tw.resolveBoth(t, 0, -1, false)
		for op := 0; len(src.b) > 0 && op < 256; op++ {
			tw.resolveBoth(t, 0, op, tw.steps(src))
		}
	})
}

// TestResolveSkipsWhenUnchanged: a Resolve with no state change must not
// re-run the solver, and must leave rates bit-identical.
func TestResolveSkipsWhenUnchanged(t *testing.T) {
	n := NewNetwork()
	r := n.AddResource("link", 100)
	f1 := n.NewFlow("a", math.Inf(1))
	f1.Use(r, 1)
	f2 := n.NewFlow("b", 30)
	f2.Use(r, 1)
	if !n.Resolve() {
		t.Fatal("first Resolve must solve")
	}
	before := [2]float64{f1.rate, f2.rate}
	solves := n.Stats().FullSolves
	for i := 0; i < 5; i++ {
		if n.Resolve() {
			t.Fatal("Resolve re-solved with nothing changed")
		}
	}
	if n.Stats().FullSolves != solves || n.Stats().Skips != 5 {
		t.Fatalf("stats = %+v, want %d solves and 5 skips", n.Stats(), solves)
	}
	if f1.rate != before[0] || f2.rate != before[1] {
		t.Fatal("skipped Resolve perturbed rates")
	}
}

// TestResolveFastPathNonBindingDemand: raising or lowering a demand cap
// that stays strictly above the flow's solved rate is absorbed without a
// solve and leaves every rate bit-identical; a binding change re-solves.
func TestResolveFastPathNonBindingDemand(t *testing.T) {
	n := NewNetwork()
	r := n.AddResource("link", 100)
	var flows []*Flow
	for i := 0; i < 4; i++ {
		f := n.NewFlow("f", 1000) // fair share will be 25 ≪ 1000
		f.Use(r, 1)
		flows = append(flows, f)
	}
	n.Resolve()
	if got := flows[0].rate; got != 25 {
		t.Fatalf("fair share = %v, want 25", got)
	}
	n.SetDemand(flows[0], 500) // still ≫ 25: non-binding
	if n.Resolve() {
		t.Fatal("non-binding demand change triggered a full solve")
	}
	if n.Stats().FastResolves != 1 {
		t.Fatalf("stats = %+v, want 1 fast resolve", n.Stats())
	}
	for _, f := range flows {
		if f.rate != 25 {
			t.Fatalf("rate perturbed to %v by fast path", f.rate)
		}
	}
	// And the fast path must not have gone stale: a binding change next.
	n.SetDemand(flows[0], 10)
	if !n.Resolve() {
		t.Fatal("binding demand change skipped the solver")
	}
	if flows[0].rate != 10 || flows[1].rate != 30 {
		t.Fatalf("rates = %v/%v, want 10/30", flows[0].rate, flows[1].rate)
	}
}

// TestIncrementalSettersSeen: a change made through each setter — capacity,
// weight, demand, and a Use appended to a linked flow — is seen by the next Resolve
// and solved as a partial; one set and restored before it is not.
func TestIncrementalSettersSeen(t *testing.T) {
	n := NewNetwork()
	r := n.AddResource("link", 100)
	f := n.NewFlow("f", math.Inf(1))
	f.Use(r, 1)
	n.Resolve()
	if f.rate != 100 {
		t.Fatalf("rate = %v, want 100", f.rate)
	}
	n.SetCapacity(r, 40)
	n.Resolve()
	if f.rate != 40 {
		t.Fatalf("rate = %v after SetCapacity, want 40", f.rate)
	}
	n.SetWeight(f, 2) // a weight-only change must also be seen
	n.Resolve()
	// Setter writes resolve through the bottleneck-subgraph path: the first
	// Resolve is the full solve, the two writes are partials.
	if st := n.Stats(); st.FullSolves != 1 || st.PartialSolves != 2 || st.Skips != 0 {
		t.Fatalf("stats = %+v, want the 2 setter writes solved (1 full + 2 partial)", st)
	}
	// Set and restored before a Resolve: a skip, not a refill.
	n.SetWeight(f, 3)
	n.SetDemand(f, 7)
	n.SetWeight(f, 2)
	n.SetDemand(f, math.Inf(1))
	if n.Resolve() {
		t.Fatal("inputs set and restored before Resolve were solved")
	}
	if st := n.Stats(); st.PartialSolves != 2 || st.Skips != 1 {
		t.Fatalf("stats = %+v, want the restore counted as a skip", st)
	}
	n.SetDemand(f, 25) // binding: below the capacity-bound 40
	n.Resolve()
	if f.rate != 25 {
		t.Fatalf("rate = %v after SetDemand, want 25", f.rate)
	}
	// A Use appended after a solve changes the usage set.
	r2 := n.AddResource("cpu", 10)
	f.Use(r2, 1)
	n.Resolve()
	if f.rate != 10 {
		t.Fatalf("rate = %v after new usage, want CPU-capped 10", f.rate)
	}
	if st := n.Stats(); st.FullSolves != 1 || st.PartialSolves != 4 {
		t.Fatalf("stats = %+v, want SetDemand and Use solved as partials", st)
	}
}

// TestIncrementalVisitsOnlyDirty: with 100k idle flows linked, one
// SetDemand plus Resolve visits a handful of flows and resources, not the
// network, and allocates nothing.
func TestIncrementalVisitsOnlyDirty(t *testing.T) {
	const idle = 100_000
	n := NewNetwork()
	var flows []*Flow
	for i := 0; i < idle; i++ {
		f := n.NewFlow("idle", 0)
		f.Use(n.AddResource("r", 1e9), 1)
		flows = append(flows, f)
	}
	n.Resolve()
	f := flows[idle/2]
	i := 0
	toggle := func() {
		n.SetDemand(f, float64(i%2)*5) // 0 ↔ 5: binding either way
		i++
		n.Resolve()
	}
	toggle() // size the dirty list and the refill scratch
	before := n.Stats()
	if avg := testing.AllocsPerRun(100, toggle); avg != 0 {
		t.Fatalf("SetDemand+Resolve allocates %v objects, want 0", avg)
	}
	after := n.Stats()
	ops := after.PartialSolves - before.PartialSolves
	if ops != 101 || after.FullSolves != 1 {
		t.Fatalf("stats %+v -> %+v, want one partial solve per toggle", before, after)
	}
	// One queued change, one seed, and a component of one flow and one
	// resource: 4 visits per Resolve.
	if per := (after.Visited - before.Visited) / ops; per > 4 {
		t.Fatalf("%d visits per Resolve with %d idle flows, want ≤ 4", per, idle)
	}
}
