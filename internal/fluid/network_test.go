package fluid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestSingleFlowSingleResource(t *testing.T) {
	n := NewNetwork()
	r := n.AddResource("link", 100)
	f := n.NewFlow("f", math.Inf(1))
	f.Use(r, 1)
	n.Solve()
	if !almostEqual(f.Rate(), 100, 1e-9) {
		t.Fatalf("rate = %v, want 100", f.Rate())
	}
	if !almostEqual(r.Load(), 100, 1e-9) {
		t.Fatalf("load = %v, want 100", r.Load())
	}
	if !almostEqual(r.Utilization(), 1, 1e-9) {
		t.Fatalf("utilization = %v, want 1", r.Utilization())
	}
}

func TestTwoFlowsShareEqually(t *testing.T) {
	n := NewNetwork()
	r := n.AddResource("link", 100)
	f1 := n.NewFlow("f1", math.Inf(1))
	f1.Use(r, 1)
	f2 := n.NewFlow("f2", math.Inf(1))
	f2.Use(r, 1)
	n.Solve()
	if !almostEqual(f1.Rate(), 50, 1e-9) || !almostEqual(f2.Rate(), 50, 1e-9) {
		t.Fatalf("rates = %v, %v, want 50, 50", f1.Rate(), f2.Rate())
	}
}

func TestDemandCapRedistributes(t *testing.T) {
	n := NewNetwork()
	r := n.AddResource("link", 100)
	f1 := n.NewFlow("f1", 20)
	f1.Use(r, 1)
	f2 := n.NewFlow("f2", math.Inf(1))
	f2.Use(r, 1)
	n.Solve()
	if !almostEqual(f1.Rate(), 20, 1e-9) {
		t.Fatalf("f1 rate = %v, want 20 (demand-capped)", f1.Rate())
	}
	if !almostEqual(f2.Rate(), 80, 1e-9) {
		t.Fatalf("f2 rate = %v, want 80 (rest of capacity)", f2.Rate())
	}
}

func TestCoefficientScalesConsumption(t *testing.T) {
	n := NewNetwork()
	r := n.AddResource("mem", 100)
	// Flow crosses the memory controller 3 times per byte (TCP copies).
	f := n.NewFlow("tcp", math.Inf(1))
	f.Use(r, 3)
	n.Solve()
	if !almostEqual(f.Rate(), 100.0/3, 1e-9) {
		t.Fatalf("rate = %v, want %v", f.Rate(), 100.0/3)
	}
}

func TestMultiResourceBottleneck(t *testing.T) {
	n := NewNetwork()
	wide := n.AddResource("wide", 1000)
	narrow := n.AddResource("narrow", 10)
	f := n.NewFlow("f", math.Inf(1))
	f.Use(wide, 1)
	f.Use(narrow, 1)
	n.Solve()
	if !almostEqual(f.Rate(), 10, 1e-9) {
		t.Fatalf("rate = %v, want 10 (narrow bottleneck)", f.Rate())
	}
}

func TestParkingLotTopology(t *testing.T) {
	// Classic max-min scenario: one long flow through two links, one short
	// flow on each link. Max-min gives every flow half of each link.
	n := NewNetwork()
	l1 := n.AddResource("l1", 100)
	l2 := n.AddResource("l2", 100)
	long := n.NewFlow("long", math.Inf(1))
	long.Use(l1, 1)
	long.Use(l2, 1)
	s1 := n.NewFlow("s1", math.Inf(1))
	s1.Use(l1, 1)
	s2 := n.NewFlow("s2", math.Inf(1))
	s2.Use(l2, 1)
	n.Solve()
	for _, f := range []*Flow{long, s1, s2} {
		if !almostEqual(f.Rate(), 50, 1e-9) {
			t.Fatalf("%s rate = %v, want 50", f.Name, f.Rate())
		}
	}
}

func TestUnevenBottlenecksMaxMin(t *testing.T) {
	// long crosses a 30-capacity and a 100-capacity link; short only the
	// 100 one. long is limited to 15? No: max-min: on l1 long shares with
	// s1: 15 each; on l2 long frozen at 15 leaves 85 for s2.
	n := NewNetwork()
	l1 := n.AddResource("l1", 30)
	l2 := n.AddResource("l2", 100)
	long := n.NewFlow("long", math.Inf(1))
	long.Use(l1, 1)
	long.Use(l2, 1)
	s1 := n.NewFlow("s1", math.Inf(1))
	s1.Use(l1, 1)
	s2 := n.NewFlow("s2", math.Inf(1))
	s2.Use(l2, 1)
	n.Solve()
	if !almostEqual(long.Rate(), 15, 1e-9) {
		t.Fatalf("long = %v, want 15", long.Rate())
	}
	if !almostEqual(s1.Rate(), 15, 1e-9) {
		t.Fatalf("s1 = %v, want 15", s1.Rate())
	}
	if !almostEqual(s2.Rate(), 85, 1e-9) {
		t.Fatalf("s2 = %v, want 85", s2.Rate())
	}
}

func TestWeightedSharing(t *testing.T) {
	n := NewNetwork()
	r := n.AddResource("link", 90)
	f1 := n.NewFlow("f1", math.Inf(1))
	n.SetWeight(f1, 2)
	f1.Use(r, 1)
	f2 := n.NewFlow("f2", math.Inf(1))
	n.SetWeight(f2, 1)
	f2.Use(r, 1)
	n.Solve()
	if !almostEqual(f1.Rate(), 60, 1e-9) || !almostEqual(f2.Rate(), 30, 1e-9) {
		t.Fatalf("rates = %v, %v, want 60, 30", f1.Rate(), f2.Rate())
	}
}

func TestZeroDemandFlowGetsZero(t *testing.T) {
	n := NewNetwork()
	r := n.AddResource("link", 100)
	f1 := n.NewFlow("idle", 0)
	f1.Use(r, 1)
	f2 := n.NewFlow("busy", math.Inf(1))
	f2.Use(r, 1)
	n.Solve()
	if f1.Rate() != 0 {
		t.Fatalf("idle rate = %v, want 0", f1.Rate())
	}
	if !almostEqual(f2.Rate(), 100, 1e-9) {
		t.Fatalf("busy rate = %v, want 100", f2.Rate())
	}
}

func TestZeroCapacityResource(t *testing.T) {
	n := NewNetwork()
	r := n.AddResource("dead", 0)
	f := n.NewFlow("f", math.Inf(1))
	f.Use(r, 1)
	n.Solve()
	if f.Rate() != 0 {
		t.Fatalf("rate = %v, want 0 through zero-capacity resource", f.Rate())
	}
}

func TestFlowWithNoResources(t *testing.T) {
	n := NewNetwork()
	f := n.NewFlow("free", 42)
	n.Solve()
	if !almostEqual(f.Rate(), 42, 1e-9) {
		t.Fatalf("rate = %v, want demand 42", f.Rate())
	}
}

func TestRemoveFlowFreesCapacity(t *testing.T) {
	n := NewNetwork()
	r := n.AddResource("link", 100)
	f1 := n.NewFlow("f1", math.Inf(1))
	f1.Use(r, 1)
	f2 := n.NewFlow("f2", math.Inf(1))
	f2.Use(r, 1)
	n.Solve()
	n.RemoveFlow(f1)
	n.Solve()
	if !almostEqual(f2.Rate(), 100, 1e-9) {
		t.Fatalf("f2 rate = %v, want 100 after removal", f2.Rate())
	}
	if f1.Rate() != 0 {
		t.Fatalf("removed flow rate = %v, want 0", f1.Rate())
	}
}

func TestUseIgnoresNonPositiveCoeff(t *testing.T) {
	n := NewNetwork()
	r := n.AddResource("link", 100)
	f := n.NewFlow("f", 10)
	f.Use(r, 0)
	f.Use(r, -1)
	if len(f.Uses) != 0 {
		t.Fatalf("non-positive coefficients should be dropped, got %d uses", len(f.Uses))
	}
}

func TestSolveIdempotent(t *testing.T) {
	n := NewNetwork()
	r := n.AddResource("link", 100)
	f1 := n.NewFlow("f1", 30)
	f1.Use(r, 1)
	f2 := n.NewFlow("f2", math.Inf(1))
	f2.Use(r, 2)
	n.Solve()
	r1, r2 := f1.Rate(), f2.Rate()
	n.Solve()
	if f1.Rate() != r1 || f2.Rate() != r2 {
		t.Fatalf("Solve not idempotent: (%v,%v) then (%v,%v)", r1, r2, f1.Rate(), f2.Rate())
	}
}

// randomNetwork builds a reproducible random topology for property tests.
func randomNetwork(seed int64) *Network {
	rng := rand.New(rand.NewSource(seed))
	n := NewNetwork()
	nr := 1 + rng.Intn(6)
	resources := make([]*Resource, nr)
	for i := range resources {
		resources[i] = n.AddResource("r", 1+rng.Float64()*1000)
	}
	nf := 1 + rng.Intn(10)
	for i := 0; i < nf; i++ {
		demand := math.Inf(1)
		if rng.Intn(2) == 0 {
			demand = rng.Float64() * 500
		}
		f := n.NewFlow("f", demand)
		n.SetWeight(f, 0.5+rng.Float64()*2)
		uses := 1 + rng.Intn(nr)
		perm := rng.Perm(nr)
		for j := 0; j < uses; j++ {
			f.Use(resources[perm[j]], 0.1+rng.Float64()*3)
		}
	}
	return n
}

// Property: no resource is ever loaded beyond capacity, all rates are
// non-negative and within demand.
func TestSolvePropertyFeasible(t *testing.T) {
	check := func(seed int64) bool {
		n := randomNetwork(seed)
		n.Solve()
		for _, r := range n.Resources() {
			if r.Load() > r.Capacity()*(1+1e-6)+1e-6 {
				t.Logf("seed %d: resource overloaded: load %v > cap %v", seed, r.Load(), r.Capacity())
				return false
			}
		}
		for _, f := range n.Flows() {
			if f.Rate() < 0 {
				t.Logf("seed %d: negative rate %v", seed, f.Rate())
				return false
			}
			if !math.IsInf(f.Demand(), 1) && f.Rate() > f.Demand()*(1+1e-6)+1e-9 {
				t.Logf("seed %d: rate %v exceeds demand %v", seed, f.Rate(), f.Demand())
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the allocation is Pareto-efficient for unbounded flows — every
// flow below its demand crosses at least one (nearly) saturated resource.
func TestSolvePropertyEfficient(t *testing.T) {
	check := func(seed int64) bool {
		n := randomNetwork(seed)
		n.Solve()
		for _, f := range n.Flows() {
			if !math.IsInf(f.Demand(), 1) && f.Rate() >= f.Demand()*(1-1e-6) {
				continue // demand-satisfied
			}
			if len(f.Uses) == 0 {
				continue
			}
			saturated := false
			for _, u := range f.Uses {
				if u.Resource.Load() >= u.Resource.Capacity()*(1-1e-6)-1e-9 {
					saturated = true
					break
				}
			}
			if !saturated {
				t.Logf("seed %d: flow below demand with no saturated resource (rate %v)", seed, f.Rate())
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: max-min fairness — you cannot raise one flow without lowering a
// flow of smaller-or-equal normalized rate. Spot-check: for each saturated
// resource, all unfrozen... simplified: flows sharing one common single
// resource with equal weights and unbounded demand get equal rates.
func TestSolvePropertySymmetry(t *testing.T) {
	check := func(nFlowsRaw uint8, capRaw uint16) bool {
		nf := int(nFlowsRaw%8) + 1
		capacity := float64(capRaw%10000) + 1
		n := NewNetwork()
		r := n.AddResource("link", capacity)
		flows := make([]*Flow, nf)
		for i := range flows {
			flows[i] = n.NewFlow("f", math.Inf(1))
			flows[i].Use(r, 1)
		}
		n.Solve()
		want := capacity / float64(nf)
		for _, f := range flows {
			if !almostEqual(f.Rate(), want, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidCapacityPanics(t *testing.T) {
	n := NewNetwork()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative capacity")
		}
	}()
	n.AddResource("bad", -1)
}

func TestInvalidDemandPanics(t *testing.T) {
	n := NewNetwork()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative demand")
		}
	}()
	n.NewFlow("bad", -5)
}

func TestNonPositiveWeightPanics(t *testing.T) {
	n := NewNetwork()
	r := n.AddResource("link", 10)
	f := n.NewFlow("f", math.Inf(1))
	f.Use(r, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero weight")
		}
	}()
	n.SetWeight(f, 0)
}

// Property: formal (weighted) max-min fairness via the bottleneck
// condition — an allocation is max-min fair iff every flow below its
// demand has a bottleneck resource: a saturated resource it uses on which
// no other flow has a strictly higher normalized rate.
func TestSolvePropertyBottleneckCondition(t *testing.T) {
	check := func(seed int64) bool {
		n := randomNetwork(seed)
		n.Solve()
		const tol = 1e-6
		for _, f := range n.Flows() {
			if len(f.Uses) == 0 {
				continue
			}
			if !math.IsInf(f.Demand(), 1) && f.Rate() >= f.Demand()*(1-tol) {
				continue // demand-satisfied
			}
			norm := f.Rate() / f.Weight()
			hasBottleneck := false
			for _, u := range f.Uses {
				r := u.Resource
				if r.Load() < r.Capacity()*(1-tol)-1e-9 {
					continue // not saturated
				}
				dominated := false
				for _, g := range n.Flows() {
					if g == f || !flowUsesRes(g, r) {
						continue
					}
					if g.Rate()/g.Weight() > norm*(1+1e-3)+1e-9 {
						dominated = true
						break
					}
				}
				if !dominated {
					hasBottleneck = true
					break
				}
			}
			if !hasBottleneck {
				t.Logf("seed %d: flow rate=%v weight=%v lacks a bottleneck", seed, f.Rate(), f.Weight())
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func flowUsesRes(f *Flow, r *Resource) bool {
	for _, u := range f.Uses {
		if u.Resource == r {
			return true
		}
	}
	return false
}

// Property: removing a flow never lowers the minimum normalized rate of
// the remaining flows. (Note that per-flow monotonicity is *false* for
// multi-resource max-min: freeing one bottleneck can let a neighbour grow
// into a third flow's bottleneck — but the water-filling floor can only
// rise, and demand-frozen flows keep their demand.)
func TestSolvePropertyRemovalRaisesFloor(t *testing.T) {
	check := func(seed int64) bool {
		n := randomNetwork(seed)
		n.Solve()
		flows := append([]*Flow(nil), n.Flows()...)
		if len(flows) < 2 {
			return true
		}
		minNorm := func() float64 {
			min := math.Inf(1)
			for _, f := range n.Flows() {
				if v := f.Rate() / f.Weight(); v < min {
					min = v
				}
			}
			return min
		}
		idx := int(seed % int64(len(flows)))
		if idx < 0 {
			idx += len(flows)
		}
		before := minNorm()
		// Exclude the victim from the "before" floor if it defined it.
		victim := flows[idx]
		beforeOthers := math.Inf(1)
		for _, f := range flows {
			if f == victim {
				continue
			}
			if v := f.Rate() / f.Weight(); v < beforeOthers {
				beforeOthers = v
			}
		}
		_ = before
		n.RemoveFlow(victim)
		n.Solve()
		after := minNorm()
		if after < beforeOthers*(1-1e-6)-1e-9 {
			t.Logf("seed %d: floor fell from %v to %v after removal", seed, beforeOthers, after)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Utilization must report the last-solved state per resource, in
// registration order: solved load and share, plus the offered demand
// (coefficient-weighted, +Inf when any user is unbounded).
func TestUtilizationSnapshot(t *testing.T) {
	n := NewNetwork()
	a := n.AddResource("a", 100)
	b := n.AddResource("b", 200)
	n.AddResource("idle", 50)
	f1 := n.NewFlow("f1", 30) // demand-capped
	f1.Use(a, 1)
	f2 := n.NewFlow("f2", math.Inf(1)) // fills what f1 leaves
	f2.Use(a, 1)
	f2.Use(b, 2)
	n.Solve()

	us := n.Utilization()
	if len(us) != 3 {
		t.Fatalf("got %d resources, want 3", len(us))
	}
	if us[0].Name != "a" || us[1].Name != "b" || us[2].Name != "idle" {
		t.Fatalf("not registration order: %v %v %v", us[0].Name, us[1].Name, us[2].Name)
	}
	// a carries f1 (30) + f2 (70): full.
	if !almostEqual(us[0].Load, 100, 1e-9) || !almostEqual(us[0].Share, 1, 1e-9) {
		t.Fatalf("a: load=%v share=%v, want 100, 1", us[0].Load, us[0].Share)
	}
	if !us[0].Saturated() {
		t.Fatal("a should be saturated")
	}
	// b carries 2×f2 = 140 of 200.
	if !almostEqual(us[1].Load, 140, 1e-9) || !almostEqual(us[1].Share, 0.7, 1e-9) {
		t.Fatalf("b: load=%v share=%v, want 140, 0.7", us[1].Load, us[1].Share)
	}
	if us[1].Saturated() {
		t.Fatal("b must not read as saturated at 70%")
	}
	// Offered demand: a sees 30 from f1 plus unbounded f2.
	if !math.IsInf(us[0].Demand, 1) || !math.IsInf(us[1].Demand, 1) {
		t.Fatalf("a/b demand = %v/%v, want +Inf (f2 unbounded)", us[0].Demand, us[1].Demand)
	}
	if us[2].Load != 0 || us[2].Demand != 0 || us[2].Share != 0 {
		t.Fatalf("idle resource should read zero, got %+v", us[2])
	}

	// Bounded-only demand stays finite and coefficient-weighted.
	n.SetDemand(f2, 10)
	n.Solve()
	us = n.Utilization()
	if !almostEqual(us[0].Demand, 40, 1e-9) { // 30 + 10
		t.Fatalf("a demand = %v, want 40", us[0].Demand)
	}
	if !almostEqual(us[1].Demand, 20, 1e-9) { // 2 × 10
		t.Fatalf("b demand = %v, want 20", us[1].Demand)
	}
}

// Utilization reads the snapshot without re-solving: a mutated-but-unsolved
// network still reports the previous allocation.
func TestUtilizationDoesNotResolve(t *testing.T) {
	n := NewNetwork()
	r := n.AddResource("r", 100)
	f := n.NewFlow("f", math.Inf(1))
	f.Use(r, 1)
	n.Solve()
	n.SetDemand(f, 10) // not yet solved
	if got := n.Utilization()[0].Load; !almostEqual(got, 100, 1e-9) {
		t.Fatalf("load = %v, want the stale 100 until the next Solve", got)
	}
	n.Solve()
	if got := n.Utilization()[0].Load; !almostEqual(got, 10, 1e-9) {
		t.Fatalf("load after re-solve = %v, want 10", got)
	}
}
