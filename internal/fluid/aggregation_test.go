package fluid

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// use is one (resource, coefficient) edge of a class spec, shared between
// the aggregated network and its flat twin.
type use struct {
	ri    int
	coeff float64
}

// classSpec describes one flow class so the flat twin can materialise (and
// later grow or shrink) the matching set of individual flows.
type classSpec struct {
	demand  float64 // per member, same as Flow.Demand() on a class
	weight  float64 // per member
	members int
	uses    []use
}

// materialise appends spec.members individual flows to the flat network.
func (cs *classSpec) materialise(fn *Network, frs []*Resource) []*Flow {
	var out []*Flow
	for m := 0; m < cs.members; m++ {
		f := fn.NewFlow("m", cs.demand)
		fn.SetWeight(f, cs.weight)
		for _, u := range cs.uses {
			f.Use(frs[u.ri], u.coeff)
		}
		out = append(out, f)
	}
	return out
}

// classesMatch checks every class's member rate against each flat member
// flow, the aggregate identity rate == memberRate*members, and resource
// loads, at the suite-wide 1e-9 relative tolerance.
func classesMatch(t *testing.T, seed, op int, classes []*Flow, flat [][]*Flow,
	cn, fn *Network) {
	t.Helper()
	for i, cf := range classes {
		if cf.Members() != len(flat[i]) {
			t.Fatalf("seed %d op %d: class %d has %d members, flat twin %d",
				seed, op, i, cf.Members(), len(flat[i]))
		}
		if want := cf.MemberRate() * float64(cf.Members()); cf.Rate() != want {
			t.Fatalf("seed %d op %d: class %d aggregate %g != member %g x %d",
				seed, op, i, cf.Rate(), cf.MemberRate(), cf.Members())
		}
		for m, ff := range flat[i] {
			a, b := cf.MemberRate(), ff.Rate()
			if a == b {
				continue
			}
			if math.Abs(a-b) > 1e-9*math.Max(1, math.Abs(b)) {
				t.Fatalf("seed %d op %d: class %d member %d rate %g (aggregated) vs %g (flat)",
					seed, op, i, m, a, b)
			}
		}
	}
	for i := range cn.resources {
		a, b := cn.resources[i].load, fn.resources[i].load
		if math.Abs(a-b) > 1e-9*math.Max(1, math.Abs(b)) {
			t.Fatalf("seed %d op %d: resource %d load %g vs %g", seed, op, i, a, b)
		}
	}
}

// TestFlowClassBasicDisaggregation: a class of 3 competing with a singleton
// on one link gets 3 member shares, and the exact aggregate identity holds.
func TestFlowClassBasicDisaggregation(t *testing.T) {
	n := NewNetwork()
	r := n.AddResource("link", 100)
	c := n.NewFlowClass("class", math.Inf(1), 3)
	c.Use(r, 1)
	s := n.NewFlow("single", math.Inf(1))
	s.Use(r, 1)
	n.Solve()
	if got := c.MemberRate(); got != 25 {
		t.Fatalf("member rate = %v, want 25", got)
	}
	if got := c.Rate(); got != 75 {
		t.Fatalf("class rate = %v, want 75", got)
	}
	if got := s.Rate(); got != 25 {
		t.Fatalf("singleton rate = %v, want 25", got)
	}
	// Demand-capped members: cap below the fair share, residual to the rest.
	n.SetDemand(c, 10)
	n.Resolve()
	if c.MemberRate() != 10 || c.Rate() != 30 || s.Rate() != 70 {
		t.Fatalf("capped: member %v class %v single %v, want 10/30/70",
			c.MemberRate(), c.Rate(), s.Rate())
	}
}

// TestFlowClassMatchesUnaggregated is the randomized differential suite for
// flow-class aggregation: across 25 seeds, a network of classes driven
// through Resolve must disaggregate to per-member rates identical (within
// 1e-9) to a from-scratch Solve of a flat twin holding one individual flow
// per member. Mutations include direct field writes bypassing the setters,
// membership growth and shrink, capacity churn, and class arrival/departure.
func TestFlowClassMatchesUnaggregated(t *testing.T) {
	for seed := 0; seed < 25; seed++ {
		rng := rand.New(rand.NewSource(int64(1000 + seed)))
		cn, fn := NewNetwork(), NewNetwork()
		var crs, frs []*Resource
		nr := 3 + rng.Intn(10)
		for i := 0; i < nr; i++ {
			cap := math.Pow(10, 6+3*rng.Float64())
			crs = append(crs, cn.AddResource("r", cap))
			frs = append(frs, fn.AddResource("r", cap))
		}
		newSpec := func() *classSpec {
			d := math.Inf(1)
			if rng.Intn(3) == 0 {
				d = math.Pow(10, 4+4*rng.Float64())
			}
			cs := &classSpec{demand: d, weight: 0.5 + 2*rng.Float64(),
				members: 1 + rng.Intn(6)}
			for j, nu := 0, 1+rng.Intn(4); j < nu; j++ {
				cs.uses = append(cs.uses, use{rng.Intn(nr), 0.25 + rng.Float64()})
			}
			return cs
		}
		addClass := func(cs *classSpec) *Flow {
			cf := cn.NewFlowClass("c", cs.demand, cs.members)
			cn.SetWeight(cf, cs.weight)
			for _, u := range cs.uses {
				cf.Use(crs[u.ri], u.coeff)
			}
			return cf
		}
		var specs []*classSpec
		var classes []*Flow
		var flat [][]*Flow
		for i, nc := 0, 1+rng.Intn(12); i < nc; i++ {
			cs := newSpec()
			specs = append(specs, cs)
			classes = append(classes, addClass(cs))
			flat = append(flat, cs.materialise(fn, frs))
		}
		cn.Resolve()
		fn.Solve()
		classesMatch(t, seed, -1, classes, flat, cn, fn)
		for op := 0; op < 80; op++ {
			switch k := rng.Intn(12); {
			case k < 4: // per-member demand on both sides
				i := rng.Intn(len(classes))
				var d float64
				switch rng.Intn(3) {
				case 0:
					d = math.Max(1, classes[i].MemberRate()*(0.1+0.8*rng.Float64()))
				default:
					d = math.Pow(10, 10+2*rng.Float64())
				}
				specs[i].demand = d
				cn.SetDemand(classes[i], d)
				for _, ff := range flat[i] {
					fn.SetDemand(ff, d)
				}
			case k < 6: // per-member weight
				i := rng.Intn(len(classes))
				w := 0.5 + 2*rng.Float64()
				specs[i].weight = w
				cn.SetWeight(classes[i], w)
				for _, ff := range flat[i] {
					fn.SetWeight(ff, w)
				}
			case k < 8: // capacity churn
				i := rng.Intn(nr)
				c := math.Pow(10, 6+3*rng.Float64())
				cn.SetCapacity(crs[i], c)
				fn.SetCapacity(frs[i], c)
			case k < 10: // membership growth/shrink: a parameter change on the
				// class side, flow arrival/departure on the flat side
				i := rng.Intn(len(classes))
				m := 1 + rng.Intn(6)
				cs := specs[i]
				cn.SetMembers(classes[i], m)
				for len(flat[i]) > m {
					last := len(flat[i]) - 1
					fn.RemoveFlow(flat[i][last])
					flat[i] = flat[i][:last]
				}
				for len(flat[i]) < m {
					f := fn.NewFlow("m", cs.demand)
					fn.SetWeight(f, cs.weight)
					for _, u := range cs.uses {
						f.Use(frs[u.ri], u.coeff)
					}
					flat[i] = append(flat[i], f)
				}
				cs.members = m
			case k < 11 && len(classes) > 1: // class departure
				i := rng.Intn(len(classes))
				cn.RemoveFlow(classes[i])
				for _, ff := range flat[i] {
					fn.RemoveFlow(ff)
				}
				specs = append(specs[:i], specs[i+1:]...)
				classes = append(classes[:i], classes[i+1:]...)
				flat = append(flat[:i], flat[i+1:]...)
			default: // class arrival
				cs := newSpec()
				specs = append(specs, cs)
				classes = append(classes, addClass(cs))
				flat = append(flat, cs.materialise(fn, frs))
			}
			cn.Resolve()
			fn.Solve()
			classesMatch(t, seed, op, classes, flat, cn, fn)
		}
		st := cn.Stats()
		if st.PartialSolves == 0 {
			t.Fatalf("seed %d: bottleneck-subgraph path never taken (%+v)", seed, st)
		}
		if st.FullSolves >= 82 {
			t.Fatalf("seed %d: every Resolve ran a full solve (%+v)", seed, st)
		}
	}
}

// TestClassChurnAllocFree pins the class-hit churn path at zero allocations:
// once the solver scratch is warm, demand toggles and membership churn on an
// existing class resolve without allocating.
func TestClassChurnAllocFree(t *testing.T) {
	n := NewNetwork()
	var rs []*Resource
	for i := 0; i < 8; i++ {
		rs = append(rs, n.AddResource("r", 1e8))
	}
	var fs []*Flow
	for i := 0; i < 64; i++ {
		f := n.NewFlowClass("c", 1e6, 16)
		f.Use(rs[i%8], 1).Use(rs[(i+3)%8], 0.5)
		fs = append(fs, f)
	}
	n.Resolve()
	// Warm the partial-solve scratch before measuring.
	for w := 0; w < 4; w++ {
		n.SetDemand(fs[w], 2e6)
		n.SetMembers(fs[w], 17)
		n.Resolve()
	}
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		f := fs[i%len(fs)]
		if i%2 == 0 {
			n.SetDemand(f, 2e6)
		} else {
			n.SetDemand(f, 1e6)
		}
		n.SetMembers(f, 16+i%3)
		i++
		n.Resolve()
	})
	if avg != 0 {
		t.Fatalf("class-hit churn allocates %v per Resolve, want 0", avg)
	}
}

// TestStructuralChurnAllocFree pins flow arrivals and departures at zero
// solver allocations: once the edge pool and walk scratch are warm, adding
// a flow that merges two existing components, resolving, removing it and
// resolving again allocates only the Flow itself.
func TestStructuralChurnAllocFree(t *testing.T) {
	n := NewNetwork()
	var rs []*Resource
	for i := 0; i < 8; i++ {
		rs = append(rs, n.AddResource("r", 1e8))
	}
	for i := 0; i < 32; i++ {
		n.NewFlowClass("c", 1e6, 4).Use(rs[i%8], 1)
	}
	// Shared, pre-built usage vectors: Use would allocate the Uses slice,
	// which belongs to the caller, not the solver.
	uses := [][]Usage{
		{{Resource: rs[0], Coeff: 1}, {Resource: rs[5], Coeff: 0.5}},
		{{Resource: rs[2], Coeff: 1}, {Resource: rs[3], Coeff: 1}, {Resource: rs[7], Coeff: 2}},
	}
	i := 0
	op := func() {
		f := n.NewFlow("g", 1e7)
		f.Uses = uses[i%len(uses)]
		i++
		n.Resolve()
		n.RemoveFlow(f)
		n.Resolve()
	}
	n.Resolve()
	for w := 0; w < 4; w++ {
		op()
	}
	const runs = 200
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun does
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < runs; r++ {
		op()
	}
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got != runs {
		t.Fatalf("%d add/remove cycles made %d allocations, want %d (the Flows alone)",
			runs, got, runs)
	}
	if st := n.Stats(); st.FullSolves != 1 {
		t.Fatalf("structural churn ran %d full solves, want only the first", st.FullSolves)
	}
}

// TestRemoveResourceInUsePanics: a resource crossed by a registered flow
// cannot be retired, whether the flow is already linked by a Resolve, still
// waiting for its first one, or re-pointed in place before an Invalidate;
// once its only flow leaves, it can.
func TestRemoveResourceInUsePanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "still used by flow "+name) {
				t.Fatalf("panic %q, want one naming flow %s", msg, name)
			}
		}()
		fn()
	}
	n := NewNetwork()
	r := n.AddResource("link", 100)
	linked := n.NewFlow("linked", math.Inf(1))
	linked.Use(r, 1)
	n.Resolve()
	mustPanic("linked", func() { n.RemoveResource(r) })

	cpu := n.AddResource("cpu", 10)
	pending := n.NewFlow("pending", math.Inf(1))
	pending.Use(cpu, 1)
	mustPanic("pending", func() { n.RemoveResource(cpu) })

	n.RemoveFlow(pending)
	n.RemoveResource(cpu)

	// An in-place swap of a solved flow's resource, announced by
	// Invalidate, frees the old resource and claims the new one at once.
	nic := n.AddResource("nic", 50)
	linked.Uses[0].Resource = nic
	n.Invalidate()
	mustPanic("linked", func() { n.RemoveResource(nic) })
	n.RemoveResource(r)

	n.RemoveFlow(linked)
	n.RemoveResource(nic)
	if len(n.Resources()) != 0 || len(n.Flows()) != 0 {
		t.Fatalf("network not empty: %d resources, %d flows", len(n.Resources()), len(n.Flows()))
	}
}

// TestPartialSolveOnlyDirtyComponent: with two disjoint bottleneck
// subgraphs, churn in one must be solved as a partial refill that leaves
// the clean component's rates bit-identical — the frontier test proves the
// untouched component is already at its fixed point.
func TestPartialSolveOnlyDirtyComponent(t *testing.T) {
	n := NewNetwork()
	ra := n.AddResource("a", 100)
	rb := n.AddResource("b", 200)
	fa1 := n.NewFlow("a1", math.Inf(1))
	fa1.Use(ra, 1)
	fa2 := n.NewFlow("a2", 80)
	fa2.Use(ra, 1)
	fb1 := n.NewFlow("b1", math.Inf(1))
	fb1.Use(rb, 1)
	fb2 := n.NewFlowClass("b2", math.Inf(1), 3)
	fb2.Use(rb, 1)
	n.Resolve()
	cleanRates := [2]float64{fb1.Rate(), fb2.Rate()}
	cleanMember := fb2.MemberRate()
	before := n.Stats()

	n.SetDemand(fa2, 10) // binding change confined to component A
	if !n.Resolve() {
		t.Fatal("binding demand change skipped the solver")
	}
	after := n.Stats()
	if after.PartialSolves != before.PartialSolves+1 {
		t.Fatalf("stats %+v -> %+v, want exactly one partial solve", before, after)
	}
	if after.FullSolves != before.FullSolves {
		t.Fatalf("component-local churn escalated to a full solve: %+v", after)
	}
	if fa2.Rate() != 10 || fa1.Rate() != 90 {
		t.Fatalf("dirty component rates %v/%v, want 90/10", fa1.Rate(), fa2.Rate())
	}
	if fb1.Rate() != cleanRates[0] || fb2.Rate() != cleanRates[1] ||
		fb2.MemberRate() != cleanMember {
		t.Fatal("clean component rates perturbed by a partial solve")
	}
	// The partial result must equal a from-scratch solve bit-for-bit: the
	// fill code and component order are shared, so no tolerance is needed.
	partial := []float64{fa1.Rate(), fa2.Rate(), fb1.Rate(), fb2.Rate()}
	n.Solve()
	full := []float64{fa1.Rate(), fa2.Rate(), fb1.Rate(), fb2.Rate()}
	for i := range partial {
		if partial[i] != full[i] {
			t.Fatalf("flow %d: partial %v != full %v", i, partial[i], full[i])
		}
	}
}

// TestFlowClassValidation pins the constructor and setter contracts.
func TestFlowClassValidation(t *testing.T) {
	n := NewNetwork()
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("NewFlowClass(members=0)", func() { n.NewFlowClass("c", 1, 0) })
	f := n.NewFlowClass("c", math.Inf(1), 2)
	mustPanic("SetMembers(0)", func() { n.SetMembers(f, 0) })
	r := n.AddResource("link", 100)
	f.Use(r, 1)
	n.Resolve()
	if f.MemberRate() != 50 || f.Rate() != 100 {
		t.Fatalf("member %v rate %v, want 50/100", f.MemberRate(), f.Rate())
	}
	n.SetMembers(f, 4)
	n.Resolve()
	if f.MemberRate() != 25 || f.Rate() != 100 {
		t.Fatalf("after SetMembers(4): member %v rate %v, want 25/100",
			f.MemberRate(), f.Rate())
	}
	// A plain NewFlow is a class of one and never perturbs existing math.
	if g := n.NewFlow("g", 7); g.Members() != 1 {
		t.Fatalf("NewFlow members = %d, want 1", g.Members())
	}
}
