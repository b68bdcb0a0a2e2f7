package xfersched

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"e2edt/internal/core"
	"e2edt/internal/sim"
)

// TraceTenant is one tenant's share of a generated workload.
type TraceTenant struct {
	Name   string
	Weight float64 // fair-share weight, also the submission mix weight
}

// TraceConfig parameterizes a synthetic job trace. The generator is
// deterministic: the same config (including Seed) always yields the same
// trace, which is what makes scheduler runs reproducible end to end.
type TraceConfig struct {
	// Seed drives the trace's PRNG.
	Seed int64
	// Jobs is the trace length.
	Jobs int
	// JobsPerMinute is the offered load; interarrivals are exponential
	// (Poisson arrivals).
	JobsPerMinute float64
	// Tenants submit jobs proportionally to their weights; empty means one
	// tenant "t0" at weight 1.
	Tenants []TraceTenant
	// MinBytes and MaxBytes bound the uniform job-size draw.
	MinBytes, MaxBytes int64
	// GridFTPFraction of jobs use the TCP baseline tool instead of RFTP.
	GridFTPFraction float64
	// ReverseFraction of jobs flow B→A instead of A→B.
	ReverseFraction float64
	// PriorityLevels draws priorities uniformly from [0, PriorityLevels);
	// 0 or 1 gives every job priority 0.
	PriorityLevels int
}

// traceFieldError is a Validate failure. Field names the offending
// TraceConfig field, so a command line can point at the flag that set it.
type traceFieldError struct{ field, msg string }

func (e *traceFieldError) Error() string { return "xfersched: " + e.field + " " + e.msg }
func (e *traceFieldError) Field() string { return e.field }

// Validate rejects configs GenerateTrace would silently reinterpret: no
// jobs, a non-positive rate, a non-positive or inverted size range, and
// fractions outside [0, 1]. GenerateTrace itself keeps its zero-value
// defaults; callers that take the config from users validate first.
func (tc TraceConfig) Validate() error {
	bad := func(field, format string, args ...any) error {
		return &traceFieldError{field, fmt.Sprintf(format, args...)}
	}
	switch {
	case tc.Jobs < 1:
		return bad("Jobs", "must be at least 1, got %d", tc.Jobs)
	case !(tc.JobsPerMinute > 0) || math.IsInf(tc.JobsPerMinute, 1):
		return bad("JobsPerMinute", "must be positive and finite, got %g", tc.JobsPerMinute)
	case tc.MinBytes <= 0:
		return bad("MinBytes", "must be positive, got %d", tc.MinBytes)
	case tc.MaxBytes < tc.MinBytes:
		return bad("MaxBytes", "%d is below MinBytes %d", tc.MaxBytes, tc.MinBytes)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"GridFTPFraction", tc.GridFTPFraction}, {"ReverseFraction", tc.ReverseFraction}} {
		if !(f.v >= 0 && f.v <= 1) {
			return bad(f.name, "must be in [0, 1], got %g", f.v)
		}
	}
	return nil
}

// DefaultTraceConfig is a moderate mixed workload for the LAN system.
func DefaultTraceConfig() TraceConfig {
	return TraceConfig{
		Seed:          1,
		Jobs:          24,
		JobsPerMinute: 30,
		Tenants: []TraceTenant{
			{Name: "astro", Weight: 2},
			{Name: "bio", Weight: 1},
			{Name: "climate", Weight: 1},
		},
		MinBytes:        2 << 30, // 2 GB
		MaxBytes:        12 << 30,
		ReverseFraction: 0.25,
		PriorityLevels:  2,
	}
}

// TimedJob is one trace entry: a job and its submission time.
type TimedJob struct {
	At   sim.Time
	Spec JobSpec
}

// GenerateTrace expands a TraceConfig into a concrete submission schedule.
func GenerateTrace(tc TraceConfig) []TimedJob {
	if tc.Jobs <= 0 {
		return nil
	}
	tenants := tc.Tenants
	if len(tenants) == 0 {
		tenants = []TraceTenant{{Name: "t0", Weight: 1}}
	}
	totalW := 0.0
	for _, t := range tenants {
		totalW += t.Weight
	}
	rate := tc.JobsPerMinute / 60 // jobs per virtual second
	if rate <= 0 {
		rate = 1
	}
	minB, maxB := tc.MinBytes, tc.MaxBytes
	if minB <= 0 {
		minB = 1 << 30
	}
	if maxB < minB {
		maxB = minB
	}

	r := rand.New(rand.NewSource(tc.Seed))
	out := make([]TimedJob, 0, tc.Jobs)
	at := sim.Time(0)
	for i := 0; i < tc.Jobs; i++ {
		at += sim.Time(r.ExpFloat64() / rate)
		pick := r.Float64() * totalW
		tenant := tenants[len(tenants)-1].Name
		for _, t := range tenants {
			if pick < t.Weight {
				tenant = t.Name
				break
			}
			pick -= t.Weight
		}
		proto := ProtoRFTP
		if r.Float64() < tc.GridFTPFraction {
			proto = ProtoGridFTP
		}
		dir := core.Forward
		if r.Float64() < tc.ReverseFraction {
			dir = core.Reverse
		}
		prio := 0
		if tc.PriorityLevels > 1 {
			prio = r.Intn(tc.PriorityLevels)
		}
		bytes := minB
		if maxB > minB {
			bytes += r.Int63n(maxB - minB + 1)
		}
		out = append(out, TimedJob{
			At: at,
			Spec: JobSpec{
				ID:       fmt.Sprintf("j%03d", i),
				Tenant:   tenant,
				Protocol: proto,
				Dir:      dir,
				Bytes:    bytes,
				Files:    1 + r.Intn(8),
				Priority: prio,
			},
		})
	}
	return out
}

// FormatTrace renders a trace in the plain-text job-trace format, one line
// per entry:
//
//	<at> <id> <tenant> <proto> <dir> <bytes> <files> <prio> [deadline]
//
// at and deadline are seconds (deadline omitted when zero), proto is
// rftp|gridftp, dir is fwd|rev. ParseTrace reads the same format back;
// '#' starts a comment and blank lines are skipped.
func FormatTrace(trace []TimedJob) string {
	var b strings.Builder
	b.WriteString("# at id tenant proto dir bytes files prio [deadline]\n")
	for _, tj := range trace {
		dir := "fwd"
		if tj.Spec.Dir == core.Reverse {
			dir = "rev"
		}
		fmt.Fprintf(&b, "%g %s %s %s %s %d %d %d",
			float64(tj.At), tj.Spec.ID, tj.Spec.Tenant, tj.Spec.Protocol.String(),
			dir, tj.Spec.Bytes, tj.Spec.Files, tj.Spec.Priority)
		if tj.Spec.Deadline > 0 {
			fmt.Fprintf(&b, " %g", float64(tj.Spec.Deadline))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ParseTrace reads the job-trace format produced by FormatTrace. It
// validates each line strictly: every parse error names the offending
// line, and the returned trace round-trips through FormatTrace unchanged.
func ParseTrace(text string) ([]TimedJob, error) {
	var out []TimedJob
	for ln, line := range strings.Split(text, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if len(f) != 8 && len(f) != 9 {
			return nil, fmt.Errorf("trace line %d: want 8 or 9 fields, got %d", ln+1, len(f))
		}
		at, err := strconv.ParseFloat(f[0], 64)
		if err != nil || at < 0 || at != at || at > 1e18 {
			return nil, fmt.Errorf("trace line %d: bad submission time %q", ln+1, f[0])
		}
		spec := JobSpec{ID: f[1], Tenant: f[2]}
		switch f[3] {
		case "rftp":
			spec.Protocol = ProtoRFTP
		case "gridftp":
			spec.Protocol = ProtoGridFTP
		default:
			return nil, fmt.Errorf("trace line %d: bad protocol %q", ln+1, f[3])
		}
		switch f[4] {
		case "fwd":
			spec.Dir = core.Forward
		case "rev":
			spec.Dir = core.Reverse
		default:
			return nil, fmt.Errorf("trace line %d: bad direction %q", ln+1, f[4])
		}
		spec.Bytes, err = strconv.ParseInt(f[5], 10, 64)
		if err != nil || spec.Bytes <= 0 {
			return nil, fmt.Errorf("trace line %d: bad byte count %q", ln+1, f[5])
		}
		spec.Files, err = strconv.Atoi(f[6])
		if err != nil || spec.Files < 0 {
			return nil, fmt.Errorf("trace line %d: bad file count %q", ln+1, f[6])
		}
		spec.Priority, err = strconv.Atoi(f[7])
		if err != nil {
			return nil, fmt.Errorf("trace line %d: bad priority %q", ln+1, f[7])
		}
		if len(f) == 9 {
			d, err := strconv.ParseFloat(f[8], 64)
			if err != nil || d <= 0 || d != d || d > 1e18 {
				return nil, fmt.Errorf("trace line %d: bad deadline %q", ln+1, f[8])
			}
			spec.Deadline = sim.Duration(d)
		}
		out = append(out, TimedJob{At: sim.Time(at), Spec: spec})
	}
	return out, nil
}

// SubmitTrace schedules every trace entry for future submission. Call
// before running the engine; entries at virtual time < now panic (the
// engine rejects scheduling in the past).
func (s *Scheduler) SubmitTrace(trace []TimedJob) {
	for _, tj := range trace {
		s.SubmitAt(tj.At, tj.Spec)
	}
}

// WithTenantWeights registers the trace's tenants (with their weights) on
// the scheduler, so arbitration matches the generated mix.
func (s *Scheduler) WithTenantWeights(tenants []TraceTenant) *Scheduler {
	for _, t := range tenants {
		s.SetTenant(t.Name, t.Weight)
	}
	return s
}
