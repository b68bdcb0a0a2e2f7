package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// drive runs the command in-process and returns its exit status, stdout
// and stderr.
func drive(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestDriveDigests: the objsim-smoke drives — per-object, coalesced and
// cluster, each with the replay check — exit 0 and print the pinned bytes.
func TestDriveDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests pinned on amd64; other architectures may fuse multiply-adds")
	}
	for _, tc := range []struct{ args, sha string }{
		{"-coalesce 1 -objects 256 -replay-check", "58abb469fc5b39baeaafb74a40daac792663b00ac1fbcd0e0a12816a4b47c66a"},
		{"-coalesce 64 -replay-check", "e3d1f26365572f38bb48aafcd405c94a1f235515d8481d3cad6d08253db02dca"},
		{"-cluster -objects 512 -coalesce 64 -replay-check", "0503f66fd12401778e61a9a1acdf2ae406880ee553b3c844f042a329c90652c8"},
	} {
		code, out, errs := drive(strings.Fields(tc.args)...)
		if code != 0 {
			t.Fatalf("objsim %s: exit %d: %s", tc.args, code, errs)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != tc.sha {
			t.Errorf("objsim %s: stdout sha256 %s, want %s:\n%s", tc.args, got, tc.sha, out)
		}
	}
}

// TestRunStatus: malformed flags exit 2, a shape the cluster rejects 1.
func TestRunStatus(t *testing.T) {
	for _, tc := range []struct {
		args string
		code int
		want string
	}{
		{"-h", 0, "-coalesce"},
		{"-no-such-flag", 2, "flag provided but not defined"},
		{"-coalesce 0", 2, "must be positive"},
		{"-objects 0", 2, "must be positive"},
		{"-cluster -hosts 0", 1, "objsim: "},
	} {
		code, _, errs := drive(strings.Fields(tc.args)...)
		if code != tc.code || !strings.Contains(errs, tc.want) {
			t.Errorf("objsim %s: exit %d, stderr %q; want exit %d naming %q", tc.args, code, errs, tc.code, tc.want)
		}
	}
}
