package fluid

import (
	"math"
	"reflect"
	"testing"
	"unsafe"

	"e2edt/internal/sim"
)

// TestIncrementalMergesDuplicateCharges: repeated (resource, account)
// charges on an unlinked flow collapse into one entry holding the summed
// coefficient; another account on the same resource, or the same account
// on another resource, gets its own entry, and a hint left by another flow
// never merges into the wrong entry.
func TestIncrementalMergesDuplicateCharges(t *testing.T) {
	n := NewNetwork()
	r := n.AddResource("link", 100)
	cpu := n.AddResource("cpu", 10)
	var a, b, x Account
	f := n.NewFlow("f", math.Inf(1))
	f.UseTagged(r, 1, &a)
	f.UseTagged(cpu, 0.5, &x)
	f.UseTagged(r, 2, &a)
	f.UseTagged(r, 0.25, &b)
	f.UseTagged(r, 4, &a) // r's newest hint is b's: found through the older one
	f.Use(cpu, 1)
	f.Use(cpu, 1)
	want := []Usage{{r, 7, &a}, {cpu, 0.5, &x}, {r, 0.25, &b}, {cpu, 2, nil}}
	if !reflect.DeepEqual(f.Uses, want) {
		t.Fatalf("Uses = %v, want %v", f.Uses, want)
	}

	// r's hints now point into f; g's entry at that position is another
	// resource's, so g's charge to r must miss and append.
	g := n.NewFlow("g", math.Inf(1))
	g.UseTagged(cpu, 1, &a)
	g.UseTagged(r, 1, &a)
	if want := []Usage{{cpu, 1, &a}, {r, 1, &a}}; !reflect.DeepEqual(g.Uses, want) {
		t.Fatalf("g.Uses = %v, want %v", g.Uses, want)
	}

	// The merged flow solves like one built entry by entry.
	ref := NewNetwork()
	rr, rc := ref.AddResource("link", 100), ref.AddResource("cpu", 10)
	rf := ref.NewFlow("f", math.Inf(1))
	for _, u := range []Usage{{rr, 1, &a}, {rc, 0.5, &x}, {rr, 2, &a}, {rr, 0.25, &b}, {rr, 4, &a}, {rc, 1, nil}, {rc, 1, nil}} {
		rf.Uses = append(rf.Uses, u)
	}
	rg := ref.NewFlow("g", math.Inf(1))
	rg.Uses = []Usage{{rc, 1, &a}, {rr, 1, &a}}
	n.Resolve()
	ref.Resolve()
	if !almostEqual(f.Rate(), rf.Rate(), 1e-12) || !almostEqual(g.Rate(), rg.Rate(), 1e-12) {
		t.Fatalf("rates f=%v g=%v, entry by entry f=%v g=%v", f.Rate(), g.Rate(), rf.Rate(), rg.Rate())
	}
}

// TestIncrementalMergeKeysOnAccount: the merge key is (resource, account).
// Two accounts charged on one resource stay two entries, each folding its
// own share, while unaccounted charges on one resource (memory, wire, DMA
// and limiter charges alike) collapse into a single entry.
func TestIncrementalMergeKeysOnAccount(t *testing.T) {
	eng, s := newTestSim()
	core := s.AddResource("core", 1)
	mem := s.AddResource("mem", 1000)
	var user, sys Account
	f := s.NewFlow("f", math.Inf(1))
	f.UseTagged(core, 0.001, &user)
	f.Use(mem, 1)
	f.UseTagged(core, 0.002, &sys)
	f.Use(mem, 2)
	f.UseTagged(core, 0.001, &user)
	f.Use(mem, 3)
	want := []Usage{{core, 0.002, &user}, {mem, 6, nil}, {core, 0.002, &sys}}
	if !reflect.DeepEqual(f.Uses, want) {
		t.Fatalf("Uses = %v, want %v", f.Uses, want)
	}
	s.Start(&Transfer{Flow: f, Remaining: 100})
	eng.Run()
	if u, y := s.Used(&user), s.Used(&sys); !almostEqual(u, 0.2, 1e-12) || !almostEqual(y, 0.2, 1e-12) {
		t.Fatalf("user %v sys %v, want 0.2 core-seconds each", u, y)
	}
}

// TestIncrementalAppendToLinkedFlowRelinks: a charge repeating an entry the
// last solve linked is appended, not merged, so Resolve sees the change and
// relinks; charges after that merge into the appended entry. Rates match a
// from-scratch Solve bit for bit.
func TestIncrementalAppendToLinkedFlowRelinks(t *testing.T) {
	n := NewNetwork()
	r := n.AddResource("link", 100)
	var a Account
	f := n.NewFlow("f", math.Inf(1))
	f.UseTagged(r, 1, &a)
	g := n.NewFlow("g", math.Inf(1))
	g.UseTagged(r, 1, &a)
	n.Resolve()
	if f.Rate() != 50 || g.Rate() != 50 {
		t.Fatalf("rates %v, %v, want 50 each", f.Rate(), g.Rate())
	}
	f.UseTagged(r, 0.5, &a)
	f.UseTagged(r, 0.5, &a)
	if want := []Usage{{r, 1, &a}, {r, 1, &a}}; !reflect.DeepEqual(f.Uses, want) {
		t.Fatalf("Uses = %v, want the linked entry kept and one appended", f.Uses)
	}
	partial := n.Stats().PartialSolves
	if !n.Resolve() || n.Stats().PartialSolves != partial+1 {
		t.Fatalf("Resolve did not see the append (%+v)", n.Stats())
	}
	got := [2]float64{f.Rate(), g.Rate()}
	if !almostEqual(got[0], 100.0/3, 1e-12) || got[0] != got[1] {
		t.Fatalf("rates %v, want 100/3 each (f crosses r at coefficient 2)", got)
	}
	n.Solve()
	if f.Rate() != got[0] || g.Rate() != got[1] {
		t.Fatalf("full Solve gave %v, %v; Resolve %v", f.Rate(), g.Rate(), got)
	}
}

// TestIncrementalResourceSizeClass: the merge hint must not push a Resource
// out of the 48-byte allocation size class.
func TestIncrementalResourceSizeClass(t *testing.T) {
	if s := unsafe.Sizeof(Resource{}); s > 48 {
		t.Fatalf("Resource is %d bytes, want ≤ 48", s)
	}
}

// TestIncrementalUsageBoundedUnderChurn: 1,000 transfers each cross one
// shared accounted link and one unaccounted per-transfer resource, retired
// when the transfer completes. The link's account reads every unit moved,
// and nothing but the link stays registered.
func TestIncrementalUsageBoundedUnderChurn(t *testing.T) {
	eng, s := newTestSim()
	link := s.AddResource("link", 1e6)
	var net Account
	const runs = 1000
	done := 0
	var next func()
	next = func() {
		lim := s.AddResource("limit", 1e9)
		f := s.NewFlow("f", math.Inf(1))
		f.UseTagged(link, 1, &net)
		f.Use(lim, 1)
		s.Start(&Transfer{Flow: f, Remaining: 1000, OnComplete: func(sim.Time) {
			s.RemoveResource(lim)
			if done++; done < runs {
				next()
			}
		}})
	}
	next()
	eng.Run()
	if done != runs {
		t.Fatalf("done %d, want %d", done, runs)
	}
	if got := s.Used(&net); !almostEqual(got, runs*1000, 1e-9) {
		t.Fatalf("link usage = %v, want %v", got, runs*1000)
	}
	if len(s.Network.Resources()) != 1 {
		t.Fatalf("%d resources left, want the link", len(s.Network.Resources()))
	}
}
