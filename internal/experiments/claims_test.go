package experiments

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// cachedResult holds one experiment's run, shared by the ledger test and
// the shape tests so each experiment runs once per test binary.
type cachedResult struct {
	once sync.Once
	res  Result
	err  error
}

var results sync.Map // id → *cachedResult

// result runs experiment id once and returns its result.
func result(t *testing.T, id string) Result {
	t.Helper()
	v, _ := results.LoadOrStore(id, &cachedResult{})
	c := v.(*cachedResult)
	c.once.Do(func() { c.res, c.err = Run(id) })
	if c.err != nil {
		t.Fatal(c.err)
	}
	return c.res
}

// TestClaims is the ledger check: every registered experiment's claims
// lie inside their bands. S5 is left to `e2ebench -run S5`: its 1000-host
// sweep takes minutes.
func TestClaims(t *testing.T) {
	for _, id := range IDs() {
		if id == "S5" {
			continue
		}
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			for _, c := range result(t, id).Failed() {
				t.Errorf("%s = %s outside %s (paper: %q)", c.Quantity, num(c.Measured), c.Band(), c.Paper)
			}
		})
	}
}

func TestClaimBand(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    Claim
		ok   bool
		band string
	}{
		{"inside", Claim{Measured: 1.1, Lo: 1.04, Hi: 1.2}, true, "[1.04, 1.2]"},
		{"on the bounds", Claim{Measured: 12, Lo: 12, Hi: 25}, true, "[12, 25]"},
		{"below Lo", Claim{Measured: 11.9, Lo: 12, Hi: 25}, false, "[12, 25]"},
		{"above Hi", Claim{Measured: 25.1, Lo: 12, Hi: 25}, false, "[12, 25]"},
		{"open above", Claim{Measured: 1e9, Lo: 90, Hi: inf}, true, ">= 90"},
		{"open above, below Lo", Claim{Measured: 89, Lo: 90, Hi: inf}, false, ">= 90"},
		{"open below", Claim{Measured: -1e9, Lo: -inf, Hi: 15}, true, "<= 15"},
		{"open below, above Hi", Claim{Measured: 16, Lo: -inf, Hi: 15}, false, "<= 15"},
		{"NaN in an open band", Claim{Measured: math.NaN(), Lo: -inf, Hi: inf}, false, ">= -Inf"},
		{"NaN in a closed band", Claim{Measured: math.NaN(), Lo: 0, Hi: 1}, false, "[0, 1]"},
		{"strict, on the bound", Claim{Measured: 1, Lo: over(1), Hi: inf}, false, "> 1"},
		{"strict, above", Claim{Measured: 1.001, Lo: over(1), Hi: inf}, true, "> 1"},
		{"strict lower, closed upper", Claim{Measured: 0.5, Lo: over(0), Hi: 0.5}, true, "(0, 0.5]"},
		{"strict lower, on the bound", Claim{Measured: 0, Lo: over(0), Hi: 0.5}, false, "(0, 0.5]"},
		{"gate held", gate("replay identical", true), true, "= 1"},
		{"gate broken", gate("replay identical", false), false, "= 1"},
	} {
		if got := tc.c.OK(); got != tc.ok {
			t.Errorf("%s: OK() = %v, want %v", tc.name, got, tc.ok)
		}
		if got := tc.c.Band(); got != tc.band {
			t.Errorf("%s: Band() = %q, want %q", tc.name, got, tc.band)
		}
	}
}

func TestResultFailed(t *testing.T) {
	res := Result{ID: "X1", Title: "ledger", Claims: []Claim{
		{"inside", "", 1, 0, 2},
		{"outside", "", 3, 0, 2},
	}}
	failed := res.Failed()
	if len(failed) != 1 || failed[0].Quantity != "outside" {
		t.Fatalf("Failed() = %v, want only the out-of-band claim", failed)
	}
	out := res.String()
	if !strings.Contains(out, "== claims ==") || !strings.Contains(out, "FAIL") {
		t.Fatalf("claims not rendered:\n%s", out)
	}
	if len((Result{Claims: res.Claims[:1]}).Failed()) != 0 {
		t.Fatal("in-band claim reported as failed")
	}
}
