package cluster

import (
	"fmt"
	"testing"

	"e2edt/internal/fabric"
	"e2edt/internal/sim"
	"e2edt/internal/trace"
	"e2edt/internal/units"
)

// runHashed builds and runs a cluster under a hashing tracer and returns
// the replay digest plus the report.
func runHashed(t *testing.T, cfg Config, wcfg WorkloadConfig) (string, uint64, Report) {
	t.Helper()
	eng := sim.NewEngine()
	h := trace.NewHasher()
	eng.SetTracer(h)
	c, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Generate(c, wcfg); err != nil {
		t.Fatal(err)
	}
	c.Run()
	return h.Sum(), h.Events(), c.Report()
}

func smallCfg(hosts, shards int, seed int64) (Config, WorkloadConfig) {
	cfg := Config{
		Hosts:   hosts,
		Shards:  shards,
		DropPct: 5,
		Seed:    seed,
	}
	wcfg := WorkloadConfig{
		Tenants: 5 * hosts,
		Jobs:    10 * hosts,
		Seed:    seed,
	}
	return cfg, wcfg
}

// TestClusterDeterminism20Seeds is the replay contract at 100 hosts:
// twenty random seeds, each run twice, byte-identical traces every time.
func TestClusterDeterminism20Seeds(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg, wcfg := smallCfg(100, 4, seed)
			sum1, n1, rep1 := runHashed(t, cfg, wcfg)
			sum2, n2, rep2 := runHashed(t, cfg, wcfg)
			if sum1 != sum2 {
				t.Fatalf("seed %d: trace diverged (%d vs %d events)", seed, n1, n2)
			}
			if rep1.DeliveredBytes != rep2.DeliveredBytes {
				t.Fatalf("seed %d: delivered bytes diverged", seed)
			}
			if rep1.JobsLost+int(countDone(rep1)) == 0 {
				t.Fatalf("seed %d: nothing ran", seed)
			}
			_ = rep2
		})
	}
}

func countDone(r Report) uint64 {
	return uint64(r.Jobs - r.JobsLost)
}

// TestClusterDeterminism1000Hosts runs the full-scale pair once: same
// seed, 1000 hosts, byte-identical trace. Modest job count keeps the
// paired run affordable; S5 exercises the full 10k-tenant scale.
func TestClusterDeterminism1000Hosts(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-host pair skipped in short mode")
	}
	cfg := Config{Hosts: 1000, Shards: 8, DropPct: 5, Seed: 42}
	wcfg := WorkloadConfig{Tenants: 2000, Jobs: 3000, Seed: 42}
	sum1, n1, rep1 := runHashed(t, cfg, wcfg)
	sum2, _, _ := runHashed(t, cfg, wcfg)
	if sum1 != sum2 {
		t.Fatalf("1000-host trace diverged")
	}
	if n1 == 0 || rep1.DeliveredBytes <= 0 {
		t.Fatalf("1000-host run did no work: %d events, %.0f bytes", n1, rep1.DeliveredBytes)
	}
}

// TestClusterCompletesAndAccounts checks end-to-end accounting on a small
// lossless cluster: every job lands, delivered bytes match the workload,
// and every job is admitted once.
func TestClusterCompletesAndAccounts(t *testing.T) {
	eng := sim.NewEngine()
	c, err := New(eng, Config{Hosts: 8, Shards: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	c.AddTenants(4)
	d := c.AddDataset([]int{0, 1})
	var want float64
	for i := 0; i < 16; i++ {
		size := float64((i + 1)) * float64(units.MB)
		c.Submit(sim.Time(float64(i)*0.01), i%4, d, i%8, size, 0)
		want += size
	}
	c.Run()
	rep := c.Report()
	if rep.JobsLost != 0 {
		t.Fatalf("lossless cluster lost %d jobs", rep.JobsLost)
	}
	// Whole-MB sizes sum exactly in float64.
	if rep.DeliveredBytes != want {
		t.Fatalf("delivered %.0f bytes, want %.0f", rep.DeliveredBytes, want)
	}
	if rep.AggregateGoodputGbps <= 0 {
		t.Fatal("no goodput reported")
	}
	admitted := 0
	for _, n := range rep.Locality {
		admitted += n
	}
	if admitted != 16 {
		t.Fatalf("locality counts sum to %d (%v), want 16", admitted, rep.Locality)
	}
}

// TestClusterLocalityPrefersNearReplica pins the locality scoring: with a
// replica on the destination host, admission must pick it over a remote
// copy.
func TestClusterLocalityPrefersNearReplica(t *testing.T) {
	eng := sim.NewEngine()
	c, err := New(eng, Config{Hosts: 64, Shards: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.AddTenants(1)
	d := c.AddDataset([]int{5, 60})
	c.Submit(0, 0, d, 5, float64(units.MB), 0) // replica on dst itself
	c.Submit(0, 0, d, 6, float64(units.MB), 0) // same leaf as host 5
	c.Run()
	rep := c.Report()
	if got := rep.Locality[localitySame]; got != 1 {
		t.Fatalf("same-host locality = %d, want 1", got)
	}
	if got := rep.Locality[localityLeaf]; got != 1 {
		t.Fatalf("same-leaf locality = %d, want 1 (host 6 should read from host 5's leaf)", got)
	}
}

// TestClusterDropsForceRetries drives a very lossy control plane and
// checks the retry machinery engages without breaking determinism.
func TestClusterDropsForceRetries(t *testing.T) {
	cfg, wcfg := smallCfg(20, 2, 9)
	cfg.DropPct = 40
	sum1, _, rep1 := runHashed(t, cfg, wcfg)
	sum2, _, _ := runHashed(t, cfg, wcfg)
	if sum1 != sum2 {
		t.Fatal("lossy trace diverged")
	}
	if rep1.CtrlDrops == 0 || rep1.CtrlResends == 0 {
		t.Fatalf("40%% drop produced no drops/resends: %+v", rep1)
	}
}

// TestClusterShardCountChangesSchedule sanity-checks that sharding is
// real: different shard counts produce different (but individually
// deterministic) schedules.
func TestClusterShardCountChangesSchedule(t *testing.T) {
	cfg1, wcfg := smallCfg(32, 1, 11)
	cfg4 := cfg1
	cfg4.Shards = 4
	sum1, _, _ := runHashed(t, cfg1, wcfg)
	sum4, _, rep4 := runHashed(t, cfg4, wcfg)
	if sum1 == sum4 {
		t.Fatal("1-shard and 4-shard runs produced identical traces")
	}
	if len(rep4.PerShard) != 4 {
		t.Fatalf("PerShard = %v", rep4.PerShard)
	}
	total := 0
	for _, n := range rep4.PerShard {
		total += n
	}
	if total != rep4.Jobs-rep4.JobsLost {
		t.Fatalf("shard admissions %d ≠ completed jobs %d", total, rep4.Jobs-rep4.JobsLost)
	}
}

// TestClusterFatTreeTopology runs the other topology family end to end.
func TestClusterFatTreeTopology(t *testing.T) {
	cfg, wcfg := smallCfg(54, 2, 7)
	cfg.Topology = fabric.TopoFatTree
	sum1, _, rep := runHashed(t, cfg, wcfg)
	sum2, _, _ := runHashed(t, cfg, wcfg)
	if sum1 != sum2 {
		t.Fatal("fat-tree trace diverged")
	}
	if rep.DeliveredBytes <= 0 {
		t.Fatal("fat-tree cluster did no work")
	}
}

// TestGenerateMinBytesAboveDefaultMax: a MinBytes above the 512 MB default
// with MaxBytes unset must not draw sizes below MinBytes (the default
// maximum rises to MinBytes).
func TestGenerateMinBytesAboveDefaultMax(t *testing.T) {
	c, err := New(sim.NewEngine(), Config{Hosts: 4, Shards: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	lo := float64(units.GB)
	if err := Generate(c, WorkloadConfig{Tenants: 2, Jobs: 50, MinBytes: lo}); err != nil {
		t.Fatal(err)
	}
	for _, j := range c.jobs {
		if j.size < lo {
			t.Fatalf("job %d drew %.0f bytes, below MinBytes %.0f", j.id, j.size, lo)
		}
	}
}
