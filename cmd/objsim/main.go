// Command objsim drives the object-storage gateway over the simulated
// transfer fabric: a seeded stream of small-object PUTs runs through the
// coalescing layer in single-pair mode (one sender/receiver pair, the
// full metadata CPU model) or cluster mode (16+ hosts, sharded control
// plane, lossy control RPCs), ending with the per-PUT exactly-once audit.
//
// Usage:
//
//	objsim                               # single pair, K=64, 1024 PUTs
//	objsim -coalesce 1                   # per-object worst case
//	objsim -cluster -hosts 16 -shards 4  # cluster mode
//	objsim -replay-check                 # run twice, demand identical traces
//
// Each run goes through experiments.RunObjstorePoint, the harness
// experiment S8 uses. Exit status is 2 for a malformed flag, and non-zero
// when the cluster rejects its shape, when the exactly-once audit fails,
// when the burst does not drain, or when -replay-check finds diverging
// traces.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"e2edt/internal/cluster"
	"e2edt/internal/experiments"
	"e2edt/internal/objstore"
	"e2edt/internal/units"
)

type config struct {
	cluster  bool
	objects  int
	objBytes int64
	tenants  int
	coalesce int
	seed     int64
	hosts    int
	shards   int
	drop     int
}

// spec maps the flags onto one object-gateway run.
func (cfg config) spec() experiments.ObjstoreRunSpec {
	w := objstore.DefaultWorkload()
	w.Objects = cfg.objects
	w.Tenants = cfg.tenants
	w.MinBytes = cfg.objBytes
	w.MaxBytes = cfg.objBytes
	w.Seed = cfg.seed
	spec := experiments.ObjstoreRunSpec{Workload: w, Coalesce: cfg.coalesce}
	if cfg.cluster {
		spec.Cluster = &cluster.Config{
			Hosts: cfg.hosts, Shards: cfg.shards, DropPct: float64(cfg.drop), Seed: cfg.seed,
		}
	}
	return spec
}

// burst drives the run and turns a failed drain or audit into an error.
func burst(spec experiments.ObjstoreRunSpec) (experiments.ObjstoreRunResult, error) {
	r, err := experiments.RunObjstorePoint(spec)
	if err != nil {
		return r, err
	}
	if !r.Drained {
		return r, fmt.Errorf("burst did not drain within an hour of virtual time")
	}
	return r, r.Audit
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args into one burst, drives it and prints its outcome; it
// returns the process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	var cfg config
	fs := flag.NewFlagSet("objsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.BoolVar(&cfg.cluster, "cluster", false, "cluster mode: sharded control plane over -hosts hosts")
	fs.IntVar(&cfg.objects, "objects", 1024, "PUT count")
	fs.Int64Var(&cfg.objBytes, "objbytes", 24<<10, "object size in bytes")
	fs.IntVar(&cfg.tenants, "tenants", 0, "tenant count (default 1 single-pair, 4 cluster)")
	fs.IntVar(&cfg.coalesce, "coalesce", 64, "coalescing window: max objects per rftp stream window (1 = per-object)")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload and cluster seed")
	fs.IntVar(&cfg.hosts, "hosts", 16, "cluster mode: host count")
	fs.IntVar(&cfg.shards, "shards", 4, "cluster mode: control-plane shards")
	fs.IntVar(&cfg.drop, "drop", 5, "cluster mode: control RPC drop percentage")
	replay := fs.Bool("replay-check", false, "run the scenario twice and demand bit-identical traces")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	if cfg.tenants == 0 {
		cfg.tenants = 1
		if cfg.cluster {
			cfg.tenants = 4
		}
	}
	if cfg.objects <= 0 || cfg.objBytes < 0 || cfg.coalesce < 1 || cfg.tenants < 1 {
		fmt.Fprintln(stderr, "objsim: -objects, -tenants and -coalesce must be positive, -objbytes non-negative")
		return 2
	}

	mode := "single-pair"
	if cfg.cluster {
		mode = fmt.Sprintf("cluster (%d hosts, %d shards, %d%% drop)", cfg.hosts, cfg.shards, cfg.drop)
	}
	fmt.Fprintf(stdout, "objsim: %s, %d×%s PUTs, %d tenant(s), coalesce K=%d, seed %d\n",
		mode, cfg.objects, units.FormatBytes(cfg.objBytes), cfg.tenants, cfg.coalesce, cfg.seed)

	spec := cfg.spec()
	o, err := burst(spec)
	if err != nil {
		fmt.Fprintf(stderr, "objsim: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "  delivered %d objects (%s) in %.3fs virtual — %s, %d window(s)\n",
		o.Objects, units.FormatBytes(int64(o.Bytes)), o.Elapsed,
		units.FormatRate(o.Bytes/o.Elapsed), o.Windows)
	if !cfg.cluster {
		fmt.Fprintf(stdout, "  metadata path: %d point lookup(s), %d batched scan(s)\n", o.Lookups, o.Scans)
	}
	fmt.Fprintf(stdout, "  exactly-once audit: ok; trace %d events, sha256 %s\n", o.TraceEvents, o.TraceSHA[:16])

	if *replay {
		o2, err := burst(spec)
		if err != nil {
			fmt.Fprintf(stderr, "objsim: replay: %v\n", err)
			return 1
		}
		if o2.TraceSHA != o.TraceSHA || o2.TraceEvents != o.TraceEvents {
			fmt.Fprintf(stderr, "objsim: replay diverged: %d events sha %s vs %d events sha %s\n",
				o.TraceEvents, o.TraceSHA[:16], o2.TraceEvents, o2.TraceSHA[:16])
			return 1
		}
		fmt.Fprintf(stdout, "  replay: bit-identical (%d events, equal digests)\n", o2.TraceEvents)
	}
	return 0
}
