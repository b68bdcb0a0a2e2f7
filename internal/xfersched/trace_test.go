package xfersched

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"e2edt/internal/sim"
)

// TestTraceRoundTrip: a generated trace survives format → parse unchanged.
func TestTraceRoundTrip(t *testing.T) {
	tc := DefaultTraceConfig()
	tc.GridFTPFraction = 0.3
	trace := GenerateTrace(tc)
	trace[3].Spec.Deadline = 90 * sim.Second
	text := FormatTrace(trace)
	got, err := ParseTrace(text)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, trace) {
		t.Fatalf("round trip changed the trace:\n%s", text)
	}
}

// TestParseTraceComments: comments and blank lines are skipped, inline
// comments stripped.
func TestParseTraceComments(t *testing.T) {
	got, err := ParseTrace("# header\n\n 0.5 j0 bio rftp fwd 1024 1 0 # tail\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Spec.ID != "j0" || got[0].Spec.Bytes != 1024 {
		t.Fatalf("parsed %+v", got)
	}
}

// TestParseTraceRejects: malformed lines fail with the line number.
func TestParseTraceRejects(t *testing.T) {
	bad := []string{
		"x j0 t rftp fwd 1 1 0",        // bad time
		"-1 j0 t rftp fwd 1 1 0",       // negative time
		"0 j0 t ftp fwd 1 1 0",         // bad protocol
		"0 j0 t rftp up 1 1 0",         // bad direction
		"0 j0 t rftp fwd 0 1 0",        // zero bytes
		"0 j0 t rftp fwd 1 -1 0",       // negative files
		"0 j0 t rftp fwd 1 1 z",        // bad priority
		"0 j0 t rftp fwd 1 1 0 -5",     // bad deadline
		"0 j0 t rftp fwd 1 1",          // short line
		"0 j0 t rftp fwd 1 1 0 5 more", // long line
		"NaN j0 t rftp fwd 1 1 0",      // NaN time
	}
	for _, line := range bad {
		if _, err := ParseTrace(line); err == nil {
			t.Errorf("accepted %q", line)
		} else if !strings.Contains(err.Error(), "line 1") {
			t.Errorf("error for %q lacks line number: %v", line, err)
		}
	}
}

// FuzzParseTrace: the parser must never panic, and every input it accepts
// must round-trip — format the parsed trace and parse it again to an
// identical result. This pins the grammar: anything the parser lets
// through is expressible in the canonical format.
func FuzzParseTrace(f *testing.F) {
	f.Add("# at id tenant proto dir bytes files prio [deadline]\n")
	f.Add("0.5 j0 bio rftp fwd 1024 1 0\n1.5 j1 astro gridftp rev 2048 3 1 60\n")
	f.Add("1e3 a b rftp fwd 9223372036854775807 0 -1")
	f.Add("0 j0 t rftp fwd 1 1 0 # comment")
	f.Add(FormatTrace(GenerateTrace(DefaultTraceConfig())))
	f.Fuzz(func(t *testing.T, text string) {
		trace, err := ParseTrace(text)
		if err != nil {
			return
		}
		again, err := ParseTrace(FormatTrace(trace))
		if err != nil {
			t.Fatalf("canonical form rejected: %v", err)
		}
		if !reflect.DeepEqual(trace, again) {
			t.Fatalf("round trip diverged:\n in: %+v\nout: %+v", trace, again)
		}
	})
}

// TestTraceConfigValidate: each out-of-range field is rejected and named;
// the default config and boundary values pass.
func TestTraceConfigValidate(t *testing.T) {
	for _, c := range []struct {
		name  string
		mut   func(*TraceConfig)
		field string // "" = valid
	}{
		{"default", func(*TraceConfig) {}, ""},
		{"one job, equal sizes, fractions 0 and 1", func(tc *TraceConfig) {
			tc.Jobs, tc.MaxBytes = 1, tc.MinBytes
			tc.GridFTPFraction, tc.ReverseFraction = 0, 1
		}, ""},
		{"zero jobs", func(tc *TraceConfig) { tc.Jobs = 0 }, "Jobs"},
		{"negative jobs", func(tc *TraceConfig) { tc.Jobs = -3 }, "Jobs"},
		{"zero rate", func(tc *TraceConfig) { tc.JobsPerMinute = 0 }, "JobsPerMinute"},
		{"negative rate", func(tc *TraceConfig) { tc.JobsPerMinute = -5 }, "JobsPerMinute"},
		{"NaN rate", func(tc *TraceConfig) { tc.JobsPerMinute = math.NaN() }, "JobsPerMinute"},
		{"infinite rate", func(tc *TraceConfig) { tc.JobsPerMinute = math.Inf(1) }, "JobsPerMinute"},
		{"zero min", func(tc *TraceConfig) { tc.MinBytes = 0 }, "MinBytes"},
		{"min above max", func(tc *TraceConfig) {
			tc.MinBytes, tc.MaxBytes = 5<<30, 1<<30
		}, "MaxBytes"},
		{"gridftp above 1", func(tc *TraceConfig) { tc.GridFTPFraction = 1.5 }, "GridFTPFraction"},
		{"reverse negative", func(tc *TraceConfig) { tc.ReverseFraction = -1 }, "ReverseFraction"},
		{"reverse NaN", func(tc *TraceConfig) { tc.ReverseFraction = math.NaN() }, "ReverseFraction"},
	} {
		tc := DefaultTraceConfig()
		c.mut(&tc)
		err := tc.Validate()
		if c.field == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		var fe interface{ Field() string }
		if !errors.As(err, &fe) || fe.Field() != c.field {
			t.Errorf("%s: got %v, want an error naming %s", c.name, err, c.field)
		}
	}
}
