package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"e2edt/internal/faults"
	"e2edt/internal/testbed"
)

// TestParseFaultAcceptedForms: every shape target@seconds[+window][:severity]
// a flag takes parses into its parts.
func TestParseFaultAcceptedForms(t *testing.T) {
	for _, tc := range []struct {
		takes, needs, in string
		want             faultArg
	}{
		{"", "", "roce1@5", faultArg{target: "roce1", at: 5}},
		{"+", "", "7@8", faultArg{target: "7", at: 8}},
		{"+", "", "7@8+8", faultArg{target: "7", at: 8, window: 8, hasWindow: true}},
		{":", ":", "roce1@2.5:0.7", faultArg{target: "roce1", at: 2.5, severity: 0.7}},
		{"+:", ":", "3@8+6:0.95", faultArg{target: "3", at: 8, window: 6, severity: 0.95, hasWindow: true}},
		{"+", "", "5,6,7@20+6", faultArg{target: "5,6,7", at: 20, window: 6, hasWindow: true}},
	} {
		a, err := parseFault("-f", "form", tc.takes, tc.needs, tc.in)
		if err != nil {
			t.Fatalf("%q: %v", tc.in, err)
		}
		got := faultArg{target: a.target, at: a.at, window: a.window, severity: a.severity, hasWindow: a.hasWindow}
		if got != tc.want {
			t.Fatalf("%q parsed to %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

// TestFaultFlagRejections: each malformed or out-of-range fault flag value
// is refused with an error naming the flag, before anything runs.
func TestFaultFlagRejections(t *testing.T) {
	cluster := clusterFlags{hosts: 16, shards: 4}
	for _, tc := range []struct {
		set  func(f *clusterFlags)
		want string
	}{
		{func(f *clusterFlags) { f.killHost = "7" }, `bad -kill-host "7": want id@seconds[+downtime]`},
		{func(f *clusterFlags) { f.killHost = "@8" }, `bad -kill-host "@8": want`},
		{func(f *clusterFlags) { f.killHost = "7@x" }, `bad -kill-host "7@x": want`},
		{func(f *clusterFlags) { f.killHost = "7@Inf" }, `bad -kill-host "7@Inf": want`},
		{func(f *clusterFlags) { f.killHost = "7@8:0.5" }, `bad -kill-host "7@8:0.5": want`},
		{func(f *clusterFlags) { f.killHost = "-1@8" }, `bad -kill-host id "-1"`},
		{func(f *clusterFlags) { f.killHost = "16@8" }, `-kill-host 16: the run has hosts 0..15`},
		{func(f *clusterFlags) { f.killHost = "7@-1" }, `bad -kill-host time "-1": want a non-negative virtual second`},
		{func(f *clusterFlags) { f.killHost = "7@8+0" }, `bad -kill-host downtime "0": want a positive duration`},
		{func(f *clusterFlags) { f.killCtrl = "0@15+2" }, `-kill-ctrl: controller crashes are permanent`},
		{func(f *clusterFlags) { f.killCtrl = "4@15" }, `-kill-ctrl 4: the run has shards 0..3`},
		{func(f *clusterFlags) { f.killSpine = "4@1" }, `-kill-spine 4: the run has top-stage switches 0..3`},
		{func(f *clusterFlags) { f.partition = "1,x@20+6" }, `bad -partition shard id "x"`},
		{func(f *clusterFlags) { f.partition = "1,4@20+6" }, `-partition shard 4: the run has shards 0..3`},
		{func(f *clusterFlags) { f.partition = "1@20" }, `a partition needs a heal window`},
		{func(f *clusterFlags) { f.partition = "1@20+0" }, `bad -partition window "20+0": want seconds+window, both positive`},
		{func(f *clusterFlags) { f.gray = "3@8+6" }, `bad -gray "3@8+6": want id@seconds+window:severity`},
		{func(f *clusterFlags) { f.gray = "3@8:0.9" }, `a limp needs a recovery window`},
		{func(f *clusterFlags) { f.gray = "16@8+6:0.9" }, `-gray 16: the run has hosts 0..15`},
		{func(f *clusterFlags) { f.gray = "3@8+6:1" }, `bad -gray severity "1": want a fraction in (0, 1)`},
	} {
		f := cluster
		tc.set(&f)
		_, err := clusterPlan(f, 4)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%+v: error %v, want it to contain %q", f, err, tc.want)
		}
	}

	links := testbed.NewMotivatingPair().Links
	for _, tc := range []struct {
		failAt, failFor float64
		killRail, gray  string
		want            string
	}{
		{-1, 2, "", "", `bad -fail -1: want a virtual second, or 0 for no failure`},
		{math.NaN(), 2, "", "", `bad -fail NaN: want a virtual second`},
		{math.Inf(1), 2, "", "", `bad -fail +Inf: want a virtual second`},
		{1, 0, "", "", `bad -failfor 0: want a positive window in virtual seconds`},
		{1, -2, "", "", `bad -failfor -2: want a positive window`},
		{1, math.NaN(), "", "", `bad -failfor NaN: want a positive window`},
		{1, math.Inf(1), "", "", `bad -failfor +Inf: want a positive window`},
		{1, 2, "roce1", "", `bad -kill-rail "roce1": want name@seconds, e.g. roce1@5`},
		{1, 2, "roce1@5+1", "", `bad -kill-rail "roce1@5+1": want`},
		{1, 2, "roce1@NaN", "", `bad -kill-rail "roce1@NaN": want`},
		{1, 2, "roce1@0", "", `bad -kill-rail time "0": want a positive virtual second`},
		{1, 2, "roce9@5", "", `-kill-rail: no front rail named "roce9"`},
		{1, 2, "", "roce1@5", `bad -gray "roce1@5": want name@seconds:severity`},
		{1, 2, "", "roce1@5+1:0.5", `bad -gray "roce1@5+1:0.5": want`},
		{1, 2, "", "roce1@5:0", `bad -gray severity "0": want a fraction in (0, 1)`},
	} {
		if err := addLinkFaults(&faults.Plan{}, tc.failAt, tc.failFor, tc.killRail, tc.gray, links); err == nil ||
			!strings.Contains(err.Error(), tc.want) {
			t.Fatalf("-fail %g -failfor %g -kill-rail %q -gray %q: error %v, want it to contain %q",
				tc.failAt, tc.failFor, tc.killRail, tc.gray, err, tc.want)
		}
	}
}

// TestFaultFractionsRounded: a severity's surviving fraction is echoed
// rounded, for a single-pair rail sag and a cluster host limp alike.
func TestFaultFractionsRounded(t *testing.T) {
	plan := &faults.Plan{}
	if err := addLinkFaults(plan, 0, 0, "", "roce1@5:0.7", testbed.NewMotivatingPair().Links); err != nil {
		t.Fatal(err)
	}
	limps, err := clusterPlan(clusterFlags{hosts: 16, shards: 4, gray: "3@8+6:0.95"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		plan *faults.Plan
		want float64
	}{{plan, 0.3}, {limps, 0.05}} {
		if got := c.plan.Events[0].Fraction; got != c.want {
			t.Fatalf("fraction %v, want %v", got, c.want)
		}
		if s := c.plan.String(); !strings.Contains(s, fmt.Sprintf("fraction=%v", c.want)) {
			t.Fatalf("schedule echo %q lacks fraction=%v", s, c.want)
		}
	}
}

// TestClusterPlanOrder: the flags build one plan in the order host kills,
// controller kills, partitions, limps, spines — the order same-instant
// ties fire in.
func TestClusterPlanOrder(t *testing.T) {
	plan, err := clusterPlan(clusterFlags{
		hosts: 16, shards: 4,
		killSpine: "1@8+2", gray: "2@8+2:0.5", partition: "3@8+2", killCtrl: "0@8", killHost: "1@8+2",
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ev := range plan.Events {
		if ev.At == 8 {
			got = append(got, ev.Kind.String())
		}
	}
	want := "host-fail ctrl-fail partition limp-host spine-fail"
	if strings.Join(got, " ") != want {
		t.Fatalf("same-instant order %v, want %s", got, want)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
}

var (
	wallField  = regexp.MustCompile(`, [0-9.]+s wall\)`)
	latencyRow = regexp.MustCompile(`(?m)^decision latency p(50|99) .*\n`)
)

// drive runs the command in-process and returns its exit status, stdout
// and stderr.
func drive(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// digest is the sha256 of a drive's stdout with the wall-clock fields
// masked: the "(…s wall)" simulation time and the cluster's decision
// latency rows, which time admission passes with the host clock.
func digest(out string) string {
	out = latencyRow.ReplaceAllString(out, "")
	out = wallField.ReplaceAllString(out, ", s wall)")
	return fmt.Sprintf("%x", sha256.Sum256([]byte(out)))
}

// TestDriveDigests runs every Makefile drive of the command, and the
// default and verbose single-pair runs, in-process: each exits 0 and
// prints the pinned bytes.
func TestDriveDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests pinned on amd64; other architectures may fuse multiply-adds")
	}
	for _, tc := range []struct{ args, sha string }{
		{"", "24dd6e6608cc80f6c9d9e012cb880f0b44e4830549043b21e1a18813d830d4ef"},
		{"-v -utilz -md", "769387f45ad1547b81f25efe0825f43e4bac4494d93d44b347832cc6a1c5ba26"},
		// failover-smoke
		{"-jobs 8 -seed 3 -gridftp 0 -kill-rail roce1@2 -corrupt 2 -checksum",
			"366c43abe9aa9a38f13d27857b3ecf71b35e1c129cb305b8aed81e5638ba68cc"},
		{"-jobs 10 -seed 11 -gridftp 0 -kill-rail roce2@1.5 -corrupt 3 -corruptseed 5 -checksum",
			"1100232a4b346ad0f7223a5419ad4c0f3e62d6fd93207aa9e9120d84ae575d8e"},
		{"-jobs 8 -seed 5 -gridftp 0 -chaos 1 -rails",
			"711ddbcd3b641d02cb9ce79e16b70830f33235a8b4e37d590d4d1977d07763d2"},
		// cluster-smoke
		{"-cluster -hosts 100 -ctenants 500 -drop 5 -seed 7 -replay-check",
			"2ec4800fb3bdffcea12df3d395649f5615c6d3f4e11a7f702f7e4f9fd7f1cfd9"},
		{"-cluster -hosts 300 -topology fat-tree -ctenants 3000 -replay-check",
			"99724d84d947eac6b27e9a40fcc672e340e4d0c80a4bdc0dfd35120bcc685e3f"},
		// chaos-smoke
		{"-cluster -hosts 100 -shards 8 -ctenants 400 -cjobs 1200 -drop 2 -seed 7 -kill-host 7@8+8 -kill-ctrl 0@15 -partition 5,6,7@20+6 -replay-check",
			"1c7866ea09461b801627e8e333f0deef406b994493f63e61f16c7d680dc6351d"},
		{"-cluster -hosts 100 -shards 4 -topology fat-tree -ctenants 400 -cjobs 1200 -drop 2 -seed 7 -kill-spine 2@5+5 -replay-check",
			"1d096cff62c314039cc5ba87c4e768dbe4e2def7b103fc8efe7a70e85d04388d"},
		// gray-smoke
		{"-jobs 10 -seed 3 -gridftp 0 -gray roce1@2:0.7 -hedge",
			"12cc6bbc173010cac145abe5fc7fdc578306b7df98c602e6dc1ace2420f271bc"},
		{"-cluster -hosts 16 -shards 2 -ctenants 32 -cjobs 120 -gray 3@8+6:0.95 -shed -replay-check",
			"1fb725777a5abfec71e78941b1cdc5237bc47bb5a635030b3ab60352dab97f03"},
	} {
		code, out, errs := drive(strings.Fields(tc.args)...)
		if code != 0 {
			t.Fatalf("xfersched %s: exit %d: %s", tc.args, code, errs)
		}
		if got := digest(out); got != tc.sha {
			t.Errorf("xfersched %s: stdout sha256 %s, want %s:\n%s", tc.args, got, tc.sha, out)
		}
	}
}

// TestRunRejections: each malformed, contradictory or unfinishable run
// exits with its status and names its cause on stderr.
func TestRunRejections(t *testing.T) {
	dir := t.TempDir()
	goodTrace := filepath.Join(dir, "good.trace")
	badTrace := filepath.Join(dir, "bad.trace")
	if err := os.WriteFile(goodTrace, []byte("0.5 j0 astro rftp fwd 1073741824 1 0\n1 j1 bio gridftp rev 2147483648 2 1 30\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(badTrace, []byte("x j0 astro rftp fwd 1 1 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args string
		code int
		want string
	}{
		{"-h", 0, "-kill-rail"},
		{"-trace " + goodTrace, 0, ""},
		{"-jobs 2 -cluster -hosts 16 -shards 2 -ctenants 32 -cjobs 40 -kill-host 3@2+2 -md", 0, ""},
		{"-no-such-flag", 2, "flag provided but not defined"},
		{"-cluster -hedge", 1, "-hedge is a single-pair flag"},
		{"-shed", 1, "-shed is a cluster-mode flag"},
		{"-min 5QB", 1, "unknown size suffix"},
		{"-max 5QB", 1, "unknown size suffix"},
		{"-tenants x:abc", 1, `bad tenant weight "x:abc"`},
		{"-tenants ,", 1, "no tenants"},
		{"-jobs 0", 2, "(flag -jobs)"},
		{"-trace " + filepath.Join(dir, "missing"), 1, "no such file"},
		{"-trace " + badTrace, 1, "trace line 1"},
		{"-recover=false -kill-rail roce1@5", 1, "need in-protocol recovery"},
		{"-concurrent 0", 1, "MaxConcurrent must be positive"},
		{"-kill-rail roce9@5", 2, `no front rail named "roce9"`},
		{"-fail 1 -gray roce0@2:0.5", 1, "inside an outage window"},
		{"-jobs 1 -gridftp 0 -min 100000GB -max 100000GB", 1, "virtual-time budget 7200s exhausted"},
		{"-cluster -topology ring", 1, "ring"},
		{"-cluster -hosts 0", 1, "xfersched:"},
		{"-cluster -hosts 16 -kill-host 16@1", 2, "-kill-host 16: the run has hosts 0..15"},
		{"-cluster -hosts 16 -kill-host 3@9 -gray 3@8+6:0.5", 1, "inside a limp window"},
	} {
		code, _, errs := drive(strings.Fields(tc.args)...)
		if code != tc.code || !strings.Contains(errs, tc.want) {
			t.Errorf("xfersched %s: exit %d, stderr %q; want exit %d naming %q", tc.args, code, errs, tc.code, tc.want)
		}
	}
}

// faultShapes are the part sets the fault flags take and need: a rail
// kill, a host or spine kill or a partition, a rail sag, a host limp.
var faultShapes = []struct{ takes, needs string }{{"", ""}, {"+", ""}, {":", ":"}, {"+:", ":"}}

// FuzzParseFault: parseFault never panics on a flag value, and a value it
// accepts, formatted back from its parsed parts, parses to the same parts.
func FuzzParseFault(f *testing.F) {
	for _, s := range []string{"roce1@5", "7@8+8", "roce1@2.5:0.7", "3@8+6:0.95", "5,6,7@20+6", "7@x", "@8", "7@8:0.5", "a:b@1e3+0x1p-2"} {
		for shape := range faultShapes {
			f.Add(s, uint8(shape))
		}
	}
	num := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	parts := func(a faultArg) faultArg {
		return faultArg{target: a.target, at: a.at, window: a.window, severity: a.severity, hasWindow: a.hasWindow}
	}
	f.Fuzz(func(t *testing.T, s string, shape uint8) {
		sh := faultShapes[int(shape)%len(faultShapes)]
		a, err := parseFault("-f", "form", sh.takes, sh.needs, s)
		if err != nil {
			return
		}
		again := a.target + "@" + num(a.at)
		if a.hasWindow {
			again += "+" + num(a.window)
		}
		if a.sevStr != "" {
			again += ":" + num(a.severity)
		}
		b, err := parseFault("-f", "form", sh.takes, sh.needs, again)
		if err != nil {
			t.Fatalf("%q accepted, but its re-format %q is refused: %v", s, again, err)
		}
		if parts(b) != parts(a) {
			t.Fatalf("%q parsed to %+v, its re-format %q to %+v", s, parts(a), again, parts(b))
		}
	})
}
