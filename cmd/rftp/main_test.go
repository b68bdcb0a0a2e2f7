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

// TestDriveDigests: the default LAN run, the WAN run and two finite ones
// exit 0 and print the pinned bytes.
func TestDriveDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests pinned on amd64; other architectures may fuse multiply-adds")
	}
	for _, tc := range []struct{ args, sha string }{
		{"", "5db52848586661718ebad61f1196bb001bca4772a583f4690932fe74a3da7830"},
		{"-wan", "0fadcfc6f2fad3f6261fd63bd9e47a3d9a6f011b95bec2de15de7e3e41c78e38"},
		{"-size 30GB", "340fa68b796e8b0c10a3b7bb23d9c2e3b47e1937cbc7b02d9340d5e6fbc2e5d7"},
		{"-wan -size 10GB -policy default", "e5906257942cf3d1f4a574cb04a2b25a4742b2313f4eb0a464e410cc8c1837ba"},
	} {
		code, out, errs := drive(strings.Fields(tc.args)...)
		if code != 0 {
			t.Fatalf("rftp %s: exit %d: %s", tc.args, code, errs)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != tc.sha {
			t.Errorf("rftp %s: stdout sha256 %s, want %s:\n%s", tc.args, got, tc.sha, out)
		}
	}
}

// TestRunStatus: -trace logs to stderr, and malformed flags exit non-zero
// naming their cause.
func TestRunStatus(t *testing.T) {
	for _, tc := range []struct {
		args string
		code int
		want string
	}{
		{"-h", 0, "-streams"},
		{"-trace -t 0.001", 0, "rftp"},
		{"-wan -trace -t 0.2", 0, "rftp"},
		{"-no-such-flag", 2, "flag provided but not defined"},
		{"-bs 5QB", 1, "unknown size suffix"},
		{"-size 5QB", 1, "unknown size suffix"},
		{"-streams 0", 1, "rftp"},
		{"-policy bogus", 2, "-policy"},
	} {
		code, _, errs := drive(strings.Fields(tc.args)...)
		if code != tc.code || !strings.Contains(errs, tc.want) {
			t.Errorf("rftp %s: exit %d, stderr %.200q; want exit %d naming %q", tc.args, code, errs, tc.code, tc.want)
		}
	}
}
