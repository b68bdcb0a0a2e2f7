package cluster

import (
	"fmt"
	"math/rand"

	"e2edt/internal/sim"
	"e2edt/internal/units"
)

// WorkloadConfig shapes the synthetic multi-tenant workload. Every host
// holds one dataset, each replicated on min(3, hosts) hosts; arrivals are
// Poisson over workloadWindow; every job runs at priority 0.
type WorkloadConfig struct {
	// Tenants is the number of principals; weights cycle 1..4. Zero selects
	// four per host.
	Tenants int
	// Jobs is the total number of transfer requests. Zero selects two per
	// tenant.
	Jobs int
	// MinBytes/MaxBytes bound the uniform job-size draw. Zero MinBytes
	// selects 64 MB; zero MaxBytes selects 512 MB, or MinBytes when that is
	// larger.
	MinBytes, MaxBytes float64
	// Seed drives every draw; the generated workload is a pure function of
	// (config, seed).
	Seed int64
}

const (
	// workloadWindow spreads the Poisson arrivals over this many virtual
	// seconds.
	workloadWindow sim.Duration = 30
	// maxReplicas is the copy count per dataset (fewer on smaller clusters).
	maxReplicas = 3
)

// Validate rejects negative counts and inverted size bounds. Zero fields
// are "unset" and filled by SetDefaults.
func (w WorkloadConfig) Validate() error {
	if w.Tenants < 0 {
		return fmt.Errorf("cluster: Tenants must not be negative, got %d", w.Tenants)
	}
	if w.Jobs < 0 {
		return fmt.Errorf("cluster: Jobs must not be negative, got %d", w.Jobs)
	}
	if w.MinBytes < 0 {
		return fmt.Errorf("cluster: MinBytes must not be negative, got %g", w.MinBytes)
	}
	if w.MaxBytes > 0 && w.MinBytes > w.MaxBytes {
		return fmt.Errorf("cluster: MinBytes %g exceeds MaxBytes %g", w.MinBytes, w.MaxBytes)
	}
	return nil
}

// SetDefaults fills zero fields relative to the given host count. It does
// not repair invalid values — Validate rejects those.
func (w *WorkloadConfig) SetDefaults(hosts int) {
	if w.Tenants <= 0 {
		w.Tenants = 4 * hosts
	}
	if w.Jobs <= 0 {
		w.Jobs = 2 * w.Tenants
	}
	if w.MinBytes <= 0 {
		w.MinBytes = float64(64 * units.MB)
	}
	if w.MaxBytes <= 0 {
		w.MaxBytes = max(float64(512*units.MB), w.MinBytes)
	}
}

// Generate populates the cluster with tenants, replicated datasets, and a
// Poisson job arrival stream. All draws come from one seeded source
// consumed in a fixed order before the simulation starts, so the workload
// is bit-reproducible. An invalid shape (negative counts, inverted size
// bounds) is rejected before anything is attached.
func Generate(c *Cluster, wcfg WorkloadConfig) error {
	if err := wcfg.Validate(); err != nil {
		return err
	}
	hosts := c.Hosts()
	wcfg.SetDefaults(hosts)
	replicas := min(maxReplicas, hosts)
	rng := rand.New(rand.NewSource(wcfg.Seed ^ 0x0a11ca11))
	c.AddTenants(wcfg.Tenants)
	for d := 0; d < hosts; d++ {
		// Dataset d: its first copy on host d, the rest on distinct hosts
		// drawn without replacement.
		set := []int{d}
		for len(set) < replicas {
			cand := rng.Intn(hosts)
			dup := false
			for _, r := range set {
				if r == cand {
					dup = true
					break
				}
			}
			if !dup {
				set = append(set, cand)
			}
		}
		c.AddDataset(set)
	}
	mean := float64(workloadWindow) / float64(wcfg.Jobs)
	at := sim.Time(0)
	for i := 0; i < wcfg.Jobs; i++ {
		at += sim.Time(rng.ExpFloat64() * mean)
		tenant := rng.Intn(wcfg.Tenants)
		dataset := rng.Intn(hosts)
		dst := rng.Intn(hosts)
		size := wcfg.MinBytes + rng.Float64()*(wcfg.MaxBytes-wcfg.MinBytes)
		c.Submit(at, tenant, dataset, dst, size, 0)
	}
	return nil
}
