package fluid

import (
	"math"
	"math/rand"
	"testing"
)

// twinNetworks builds two structurally identical random networks from one
// seed: `inc` is driven through Resolve (incremental), `ref` through
// from-scratch Solve, so every mutation can be checked differentially.
func twinNetworks(rng *rand.Rand) (inc, ref *Network, incF, refF []*Flow, incR, refR []*Resource) {
	inc, ref = NewNetwork(), NewNetwork()
	nr := 3 + rng.Intn(18)
	for i := 0; i < nr; i++ {
		c := math.Pow(10, 6+3*rng.Float64()) // 1e6 .. 1e9
		incR = append(incR, inc.AddResource("r", c))
		refR = append(refR, ref.AddResource("r", c))
	}
	nf := 1 + rng.Intn(40)
	for i := 0; i < nf; i++ {
		d := math.Inf(1)
		if rng.Intn(3) == 0 {
			d = math.Pow(10, 4+4*rng.Float64())
		}
		a, b := inc.NewFlow("f", d), ref.NewFlow("f", d)
		w := 0.5 + 2*rng.Float64()
		a.Weight, b.Weight = w, w
		uses := 1 + rng.Intn(6)
		for j := 0; j < uses; j++ {
			ri := rng.Intn(nr)
			coeff := 0.25 + rng.Float64()
			a.Use(incR[ri], coeff)
			b.Use(refR[ri], coeff)
		}
		incF, refF = append(incF, a), append(refF, b)
	}
	return
}

func ratesMatch(t *testing.T, inc, ref *Network, seed, op int) {
	t.Helper()
	if len(inc.flows) != len(ref.flows) {
		t.Fatalf("seed %d op %d: flow populations diverged", seed, op)
	}
	for i := range inc.flows {
		a, b := inc.flows[i].rate, ref.flows[i].rate
		if a == b { // covers +Inf == +Inf
			continue
		}
		if math.Abs(a-b) > 1e-9*math.Max(1, math.Abs(b)) {
			t.Fatalf("seed %d op %d: flow %d rate %g (incremental) vs %g (full)",
				seed, op, i, a, b)
		}
	}
	for i := range inc.resources {
		a, b := inc.resources[i].load, ref.resources[i].load
		if math.Abs(a-b) > 1e-9*math.Max(1, math.Abs(b)) {
			t.Fatalf("seed %d op %d: resource %d load %g vs %g", seed, op, i, a, b)
		}
	}
}

// TestIncrementalMatchesFullSolve is the randomized differential test for
// the incremental solver: across seeded topologies and mutation sequences
// (demand changes binding and non-binding, weight changes, capacity
// changes, flow arrivals and departures, direct field writes bypassing the
// setters), Resolve must produce rates identical (within 1e-9) to a
// from-scratch Solve on an identical twin network.
func TestIncrementalMatchesFullSolve(t *testing.T) {
	for seed := 0; seed < 25; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		inc, ref, incF, refF, incR, refR := twinNetworks(rng)
		inc.Resolve()
		ref.Solve()
		ratesMatch(t, inc, ref, seed, -1)
		for op := 0; op < 120; op++ {
			switch k := rng.Intn(10); {
			case k < 4: // demand change, mostly non-binding (the fast path)
				i := rng.Intn(len(incF))
				var d float64
				switch rng.Intn(4) {
				case 0: // binding: below the current fair share
					d = incF[i].rate * (0.1 + 0.8*rng.Float64())
				case 1: // same value: pure no-op
					d = incF[i].Demand
				default: // far above any achievable rate
					d = math.Pow(10, 10+2*rng.Float64())
				}
				if d < 0 || math.IsNaN(d) {
					d = 1
				}
				incF[i].Demand = d // direct write: the dirty scan must see it
				refF[i].Demand = d
			case k < 5: // weight change
				i := rng.Intn(len(incF))
				w := 0.5 + 2*rng.Float64()
				incF[i].Weight = w
				refF[i].Weight = w
			case k < 7: // capacity change
				i := rng.Intn(len(incR))
				c := math.Pow(10, 6+3*rng.Float64())
				incR[i].Capacity = c
				refR[i].Capacity = c
			case k < 8 && len(incF) > 1: // departure
				i := rng.Intn(len(incF))
				inc.RemoveFlow(incF[i])
				ref.RemoveFlow(refF[i])
				incF = append(incF[:i], incF[i+1:]...)
				refF = append(refF[:i], refF[i+1:]...)
			default: // arrival
				d := math.Inf(1)
				if rng.Intn(2) == 0 {
					d = math.Pow(10, 4+4*rng.Float64())
				}
				a, b := inc.NewFlow("g", d), ref.NewFlow("g", d)
				ri := rng.Intn(len(incR))
				coeff := 0.25 + rng.Float64()
				a.Use(incR[ri], coeff)
				b.Use(refR[ri], coeff)
				incF, refF = append(incF, a), append(refF, b)
			}
			inc.Resolve()
			ref.Solve()
			ratesMatch(t, inc, ref, seed, op)
		}
		st := inc.Stats()
		if st.Skips == 0 && st.FastResolves == 0 {
			t.Fatalf("seed %d: incremental paths never taken (%+v)", seed, st)
		}
		if st.FullSolves >= 122 {
			t.Fatalf("seed %d: every Resolve ran a full solve (%+v)", seed, st)
		}
	}
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
	flows[0].Demand = 500 // still ≫ 25: non-binding
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
	flows[0].Demand = 10
	if !n.Resolve() {
		t.Fatal("binding demand change skipped the solver")
	}
	if flows[0].rate != 10 || flows[1].rate != 30 {
		t.Fatalf("rates = %v/%v, want 10/30", flows[0].rate, flows[1].rate)
	}
}

// TestResolveSeesDirectMutation: writes that bypass the Sim setters
// (tcpstack writes Flow.Demand directly; tests write Resource.Capacity)
// are caught by the snapshot scan.
func TestResolveSeesDirectMutation(t *testing.T) {
	n := NewNetwork()
	r := n.AddResource("link", 100)
	f := n.NewFlow("f", math.Inf(1))
	f.Use(r, 1)
	n.Resolve()
	if f.rate != 100 {
		t.Fatalf("rate = %v, want 100", f.rate)
	}
	r.Capacity = 40
	n.Resolve()
	if f.rate != 40 {
		t.Fatalf("rate = %v after direct capacity write, want 40", f.rate)
	}
	f.Weight = 2 // weight-only change must also be seen
	n.Resolve()
	// Parameter writes now resolve through the bottleneck-subgraph path:
	// the first Resolve is the full solve, the two writes are partials.
	if st := n.Stats(); st.FullSolves+st.PartialSolves != 3 || st.Skips != 0 {
		t.Fatalf("stats = %+v, want the 2 direct writes solved (1 full + 2 partial)", st)
	}
	// A Use added after a solve changes the usage set.
	r2 := n.AddResource("cpu", 10)
	f.Use(r2, 1)
	n.Resolve()
	if f.rate != 10 {
		t.Fatalf("rate = %v after new usage, want CPU-capped 10", f.rate)
	}
}
