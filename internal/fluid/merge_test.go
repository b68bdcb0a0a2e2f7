package fluid

import (
	"math"
	"reflect"
	"testing"
	"unsafe"

	"e2edt/internal/sim"
)

// TestIncrementalMergesDuplicateCharges: repeated (resource, tag) charges on
// an unlinked flow collapse into one entry holding the summed coefficient;
// a new tag on the same resource, or the same tag on another resource, gets
// its own entry, and a hint left by another flow never merges into the
// wrong entry.
func TestIncrementalMergesDuplicateCharges(t *testing.T) {
	n := NewNetwork()
	r := n.AddResource("link", 100)
	cpu := n.AddResource("cpu", 10)
	f := n.NewFlow("f", math.Inf(1))
	f.UseTagged(r, 1, "a")
	f.UseTagged(cpu, 0.5, "x")
	f.UseTagged(r, 2, "a")
	f.UseTagged(r, 0.25, "b")
	f.UseTagged(r, 4, "a") // r's newest hint is "b": found through the older one
	f.Use(cpu, 1)
	f.Use(cpu, 1)
	want := []Usage{{r, 7, "a"}, {cpu, 0.5, "x"}, {r, 0.25, "b"}, {cpu, 2, ""}}
	if !reflect.DeepEqual(f.Uses, want) {
		t.Fatalf("Uses = %v, want %v", f.Uses, want)
	}

	// r's hints now point into f; g's entry at that position is another
	// resource's, so g's charge to r must miss and append.
	g := n.NewFlow("g", math.Inf(1))
	g.UseTagged(cpu, 1, "a")
	g.UseTagged(r, 1, "a")
	if want := []Usage{{cpu, 1, "a"}, {r, 1, "a"}}; !reflect.DeepEqual(g.Uses, want) {
		t.Fatalf("g.Uses = %v, want %v", g.Uses, want)
	}

	// The merged flow solves like one built entry by entry.
	ref := NewNetwork()
	rr, rc := ref.AddResource("link", 100), ref.AddResource("cpu", 10)
	rf := ref.NewFlow("f", math.Inf(1))
	for _, u := range []Usage{{rr, 1, "a"}, {rc, 0.5, "x"}, {rr, 2, "a"}, {rr, 0.25, "b"}, {rr, 4, "a"}, {rc, 1, ""}, {rc, 1, ""}} {
		rf.Uses = append(rf.Uses, u)
	}
	rg := ref.NewFlow("g", math.Inf(1))
	rg.Uses = []Usage{{rc, 1, "a"}, {rr, 1, "a"}}
	n.Resolve()
	ref.Resolve()
	if !almostEqual(f.Rate(), rf.Rate(), 1e-12) || !almostEqual(g.Rate(), rg.Rate(), 1e-12) {
		t.Fatalf("rates f=%v g=%v, entry by entry f=%v g=%v", f.Rate(), g.Rate(), rf.Rate(), rg.Rate())
	}
}

// TestIncrementalAppendToLinkedFlowRelinks: a charge repeating an entry the
// last solve linked is appended, not merged, so Resolve sees the change and
// relinks; charges after that merge into the appended entry. Rates match a
// from-scratch Solve bit for bit.
func TestIncrementalAppendToLinkedFlowRelinks(t *testing.T) {
	n := NewNetwork()
	r := n.AddResource("link", 100)
	f := n.NewFlow("f", math.Inf(1))
	f.UseTagged(r, 1, "a")
	g := n.NewFlow("g", math.Inf(1))
	g.UseTagged(r, 1, "a")
	n.Resolve()
	if f.Rate() != 50 || g.Rate() != 50 {
		t.Fatalf("rates %v, %v, want 50 each", f.Rate(), g.Rate())
	}
	f.UseTagged(r, 0.5, "a")
	f.UseTagged(r, 0.5, "a")
	if want := []Usage{{r, 1, "a"}, {r, 1, "a"}}; !reflect.DeepEqual(f.Uses, want) {
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
// shared tagged link and one untagged per-transfer resource, retired when
// the transfer completes. Untagged consumption is not accounted, so the
// usage map keeps one bucket however many transfers finish, and no retired
// resource stays reachable through it.
func TestIncrementalUsageBoundedUnderChurn(t *testing.T) {
	eng, s := newTestSim()
	link := s.AddResource("link", 1e6)
	const runs = 1000
	done, buckets := 0, 0
	var next func()
	next = func() {
		lim := s.AddResource("limit", 1e9)
		f := s.NewFlow("f", math.Inf(1))
		f.UseTagged(link, 1, "net")
		f.Use(lim, 1)
		s.Start(&Transfer{Flow: f, Remaining: 1000, OnComplete: func(sim.Time) {
			s.RemoveResource(lim)
			if done++; done == 1 {
				buckets = len(s.usage)
			} else if len(s.usage) != buckets {
				t.Fatalf("after %d transfers the usage map holds %d buckets, after 1 it held %d", done, len(s.usage), buckets)
			}
			if done < runs {
				next()
			}
		}})
	}
	next()
	eng.Run()
	if done != runs || buckets != 1 {
		t.Fatalf("done %d, buckets %d; want %d and 1", done, buckets, runs)
	}
	if got := s.Usage(link, "net"); !almostEqual(got, runs*1000, 1e-9) {
		t.Fatalf("link usage = %v, want %v", got, runs*1000)
	}
	if len(s.Network.Resources()) != 1 {
		t.Fatalf("%d resources left, want the link", len(s.Network.Resources()))
	}
}
