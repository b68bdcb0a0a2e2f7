package main

import (
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
	for _, tc := range []struct{ killRail, gray, want string }{
		{"roce1", "", `bad -kill-rail "roce1": want name@seconds, e.g. roce1@5`},
		{"roce1@5+1", "", `bad -kill-rail "roce1@5+1": want`},
		{"roce1@NaN", "", `bad -kill-rail "roce1@NaN": want`},
		{"roce1@0", "", `bad -kill-rail time "0": want a positive virtual second`},
		{"roce9@5", "", `-kill-rail: no front rail named "roce9"`},
		{"", "roce1@5", `bad -gray "roce1@5": want name@seconds:severity`},
		{"", "roce1@5+1:0.5", `bad -gray "roce1@5+1:0.5": want`},
		{"", "roce1@5:0", `bad -gray severity "0": want a fraction in (0, 1)`},
	} {
		if err := addRailFaults(&faults.Plan{}, tc.killRail, tc.gray, links); err == nil ||
			!strings.Contains(err.Error(), tc.want) {
			t.Fatalf("-kill-rail %q -gray %q: error %v, want it to contain %q", tc.killRail, tc.gray, err, tc.want)
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
