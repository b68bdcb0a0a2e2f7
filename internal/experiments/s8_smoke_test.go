package experiments

import (
	"runtime"
	"testing"

	"e2edt/internal/cluster"
	"e2edt/internal/objstore"
)

func TestObjectGatewayShape(t *testing.T) {
	if testing.Short() {
		t.Skip("S8 sweeps a 1024-object per-object cell")
	}
	r := result(t, "S8")
	// Bulk baseline + 4 coalescing cells; 2 cluster cells.
	shape(t, r, 5, 2)
	if len(r.Notes) == 0 {
		t.Fatal("no notes")
	}
}

// TestObjstorePointDigests pins the replay digests of the three objsim
// drives `make objsim-smoke` runs: per-object K=1 × 256 PUTs, coalesced
// K=64 × 1024, and the 16-host cluster at K=64 × 512. A change that moves
// any of them changes what the gateway simulates.
func TestObjstorePointDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests pinned on amd64; other architectures may fuse multiply-adds")
	}
	work := func(objects, tenants int) objstore.Workload {
		w := objstore.DefaultWorkload()
		w.Objects, w.Tenants = objects, tenants
		w.MinBytes, w.MaxBytes = 24<<10, 24<<10
		return w
	}
	for _, tc := range []struct {
		name   string
		spec   ObjstoreRunSpec
		sha    string
		events uint64
	}{
		{"K=1x256", ObjstoreRunSpec{Workload: work(256, 1), Coalesce: 1}, "8479c86a2b719e93", 2044},
		{"K=64x1024", ObjstoreRunSpec{Workload: work(1024, 1), Coalesce: 64}, "de904f877ed94ff0", 2124},
		{"cluster-512-K=64", ObjstoreRunSpec{Workload: work(512, 4), Coalesce: 64,
			Cluster: &cluster.Config{Hosts: 16, Shards: 4, DropPct: 5, Seed: 1}}, "adeeee50f540ec83", 328},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := RunObjstorePoint(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if !r.clean() {
				t.Fatalf("drained %v, audit %v", r.Drained, r.Audit)
			}
			if r.TraceSHA[:16] != tc.sha || r.TraceEvents != tc.events {
				t.Fatalf("trace sha256 %s over %d events, want %s over %d",
					r.TraceSHA[:16], r.TraceEvents, tc.sha, tc.events)
			}
		})
	}
}
