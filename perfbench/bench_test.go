package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"e2edt/internal/sim"
)

// small holds every workload at its smallest size, for the self-test.
var small = map[string]workload{
	"tiny-flood":   tinyFlood{jobs: 16},
	"objstore-k64": objstoreBurst{objects: 128, coalesce: 64},
	"cluster-400":  clusterRun{hosts: 16, shards: 4, tenants: 16, jobs: 32, dropPct: 2},
	"iser-fio":     iserFio{window: 10 * sim.Millisecond},
}

type specMetric struct {
	Name, Unit string
}

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []specMetric `json:"end_to_end"`
	PerLayer  []specMetric `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// smallRun runs a workload at its smallest size with the minimum number of
// repetitions.
func smallRun(t *testing.T, name string, traced bool) result {
	t.Helper()
	res, _, err := run(small[name], 3, 0, traced)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

// TestPrintsEveryMetricInSpec: each workload in BENCHMARK.json exists, and
// its untraced and traced runs report exactly the metrics BENCHMARK.json
// names for them, with the same units, and no failed unit.
func TestPrintsEveryMetricInSpec(t *testing.T) {
	s := readSpec(t)
	for _, w := range s.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("workload %s has no implementation", w.Name)
		}
		for _, traced := range []bool{false, true} {
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			res := smallRun(t, w.Name, traced)
			if res.Attempted == 0 || res.Failed != 0 || !res.Correct {
				t.Errorf("%s traced=%v: attempted %d, failed %d", w.Name, traced, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: %s unit %q, want %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestCountsRepeat: the metrics that count work repeat across two runs in
// one process — allocations to within a thousandth, the live heap to within
// a hundredth (at these sizes it is a few hundred KB, so the runtime's own
// bookkeeping shows), the fluid solver's and the tracer's counts exactly.
func TestCountsRepeat(t *testing.T) {
	tolerance := map[string]float64{"allocs_per_unit": 1e-3, "alloc_kb_per_unit": 1e-3, "live_heap_mb": 1e-2}
	for name := range small {
		a, b := smallRun(t, name, false), smallRun(t, name, false)
		for m, tol := range tolerance {
			if raceEnabled {
				break
			}
			x, y := a.Metrics[m].Value, b.Metrics[m].Value
			if math.Abs(x-y) > tol*math.Max(x, y) {
				t.Errorf("%s: %s %g then %g", name, m, x, y)
			}
		}
		a, b = smallRun(t, name, true), smallRun(t, name, true)
		for m, x := range a.Metrics {
			exact := strings.HasPrefix(m, "fluid.") || strings.HasPrefix(m, "trace.")
			if exact && m != "trace.overhead" && b.Metrics[m].Value != x.Value {
				t.Errorf("%s: %s %g then %g", name, m, x.Value, b.Metrics[m].Value)
			}
		}
	}
}

// TestFailedAuditIsReported: with the watchdog's grace floor removed, tiny
// jobs are declared stalled mid-handshake and retried, which fails their
// check. The run must report that as failed units, not crash.
func TestFailedAuditIsReported(t *testing.T) {
	res, _, err := run(tinyFlood{jobs: 16, grace: sim.Microsecond}, 3, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || res.Failed > res.Attempted {
		t.Fatalf("correct=%v attempted=%d failed=%d, want some failed units", res.Correct, res.Attempted, res.Failed)
	}
}

// TestFingerprintMismatchFailsRepetition: a repetition whose virtual-time
// fingerprint differs from the reference counts all its units as failed.
func TestFingerprintMismatchFailsRepetition(t *testing.T) {
	samples := []sample{
		{rep: rep{units: 10, failed: 1, fingerprint: "a"}},
		{rep: rep{units: 10, fingerprint: "b"}},
	}
	if attempted, failed := tally("a", samples); attempted != 20 || failed != 11 {
		t.Fatalf("attempted %d failed %d, want 20 and 11", attempted, failed)
	}
}

func TestAttribute(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mallocgc", "e2edt/internal/fluid.(*Flow).UseTagged", "e2edt/internal/numa.(*Machine).Charge"}, "fluid"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"fmt.Sprintf", "e2edt/internal/sim.(*Engine).Tracef", "e2edt/internal/iscsi.(*Session).Submit"}, "trace"},
		{[]string{"sort.Float64s", "main.median"}, "other"},
	} {
		if got := attribute(c.frames); got != c.want {
			t.Errorf("attribute(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}
