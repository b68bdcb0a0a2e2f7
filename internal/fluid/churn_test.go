package fluid

import (
	"math"
	"runtime"
	"strings"
	"testing"
)

// TestClassChurnAllocFree pins demand churn on existing flows at zero
// allocations: once the solver scratch is warm, binding demand toggles
// resolve as partial refills without allocating.
func TestClassChurnAllocFree(t *testing.T) {
	n := NewNetwork()
	var rs []*Resource
	for i := 0; i < 8; i++ {
		rs = append(rs, n.AddResource("r", 1e8))
	}
	var fs []*Flow
	for i := 0; i < 64; i++ {
		f := n.NewFlow("c", 1e6)
		f.Use(rs[i%8], 1).Use(rs[(i+3)%8], 0.5)
		fs = append(fs, f)
	}
	n.Resolve()
	// Warm the partial-solve scratch before measuring.
	for w := 0; w < 4; w++ {
		n.SetDemand(fs[w], 2e6)
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
		i++
		n.Resolve()
	})
	if avg != 0 {
		t.Fatalf("demand churn allocates %v per Resolve, want 0", avg)
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
		n.NewFlow("c", 1e6).Use(rs[i%8], 1)
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
	fb2 := n.NewFlow("b2", math.Inf(1))
	fb2.Use(rb, 1)
	n.Resolve()
	cleanRates := [2]float64{fb1.Rate(), fb2.Rate()}
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
	if fb1.Rate() != cleanRates[0] || fb2.Rate() != cleanRates[1] {
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
