package objstore

import (
	"testing"

	"e2edt/internal/sim"
)

// TestRejectedPutLeavesNothing: a batch with one invalid PUT is rejected
// whole on both gateways. Its valid prefix must not reach the ledger, or
// it would never get a window and fail the audit of a later clean burst.
func TestRejectedPutLeavesNothing(t *testing.T) {
	rejected := []PutSpec{
		{Tenant: "tenant-00", Bucket: "bucket-a", Key: "k1", Size: 1000},
		{Tenant: "tenant-00", Bucket: "bucket-a", Key: "k2", Size: -1},
	}
	valid := []PutSpec{
		{Tenant: "tenant-00", Bucket: "bucket-a", Key: "k3", Size: 1000},
		{Tenant: "tenant-00", Bucket: "bucket-a", Key: "k4", Size: 2000},
	}
	at := sim.Time(sim.Second)
	// Each case builds a gateway and returns its Put, a drain-and-audit
	// step and its delivered totals.
	type gateway struct {
		put  func([]PutSpec) ([]int, error)
		run  func() error
		done func() (int, float64)
	}
	for _, tc := range []struct {
		name  string
		build func(t *testing.T) gateway
	}{
		{"single-pair", func(t *testing.T) gateway {
			g := newGateway(t, 64)
			return gateway{
				put: func(o []PutSpec) ([]int, error) { return g.Put(at, o) },
				run: func() error {
					if !g.RunToCompletion(300 * sim.Second) {
						t.Fatal("gateway did not drain")
					}
					return g.AuditExactlyOnce()
				},
				done: g.ObjectsDone,
			}
		}},
		{"cluster", func(t *testing.T) gateway {
			c, g := newClusterGW(t, 16, 1, 64)
			return gateway{
				put:  func(o []PutSpec) ([]int, error) { return g.Put(at, 0, o) },
				run:  func() error { c.Run(); return g.AuditExactlyOnce() },
				done: g.ObjectsDone,
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.build(t)
			if _, err := g.put(rejected); err == nil {
				t.Fatal("batch with a negative size accepted")
			}
			idx, err := g.put(valid)
			if err != nil {
				t.Fatal(err)
			}
			if err := g.run(); err != nil {
				t.Fatalf("audit after a rejected batch: %v", err)
			}
			if idx[0] != 0 || idx[1] != 1 {
				t.Fatalf("valid batch got indices %v, want [0 1]", idx)
			}
			if n, bytes := g.done(); n != 2 || bytes != 3000 {
				t.Fatalf("done = (%d, %.0f), want (2, 3000)", n, bytes)
			}
		})
	}
}
