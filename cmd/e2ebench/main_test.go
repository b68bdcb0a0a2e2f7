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

// TestDriveDigests: -list and one experiment exit 0 and print the pinned
// bytes.
func TestDriveDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests pinned on amd64; other architectures may fuse multiply-adds")
	}
	for _, tc := range []struct{ args, sha string }{
		{"-list", "e744c3f81ebfe71688fe788e31aca1c17493cf663420ef6db2fc26c3ec311a6b"},
		{"-run E1", "2bb3f3da29a5959708950ff3e326b930fcdbb85bc19a63cbe9e3dbc867b70058"},
	} {
		code, out, errs := drive(strings.Fields(tc.args)...)
		if code != 0 {
			t.Fatalf("e2ebench %s: exit %d: %s", tc.args, code, errs)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != tc.sha {
			t.Errorf("e2ebench %s: stdout sha256 %s, want %s:\n%s", tc.args, got, tc.sha, out)
		}
	}
}

// TestRunStatus: the markdown and chart renderings run, and an unknown
// flag or experiment exits non-zero.
func TestRunStatus(t *testing.T) {
	for _, tc := range []struct {
		args string
		code int
		want string
	}{
		{"-h", 0, "-run"},
		{"-run E1 -md -chart", 0, ""},
		{"-no-such-flag", 2, "flag provided but not defined"},
		{"-run E9", 1, "E9"},
	} {
		code, _, errs := drive(strings.Fields(tc.args)...)
		if code != tc.code || !strings.Contains(errs, tc.want) {
			t.Errorf("e2ebench %s: exit %d, stderr %q; want exit %d naming %q", tc.args, code, errs, tc.code, tc.want)
		}
	}
}
