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

// TestDriveDigests: -list and every experiment that runs in well under a
// second exit 0 and print the pinned bytes. F7, S4 and S8 take seconds and
// S5 minutes (and prints wall-clock cells), so they are left out.
func TestDriveDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests pinned on amd64; other architectures may fuse multiply-adds")
	}
	for _, tc := range []struct{ args, sha string }{
		{"-list", "e744c3f81ebfe71688fe788e31aca1c17493cf663420ef6db2fc26c3ec311a6b"},
		{"-run A1", "492e939f382303d7f639d40dbbea7f74bb9d66eaa84e9b21c4dafbe9f84ee44a"},
		{"-run A2", "55b5a47caeab4db0d528eb7fa7ac7b081f820bd2a6d5dc89a4d1b5b947acc074"},
		{"-run A3", "deed9c3e730e420f5712087a37a938ac66222f83bbafabeba4e84b55c29660c7"},
		{"-run A4", "344fb8809b6132bec38f2dd903df2a7daac629f56b94b07c82a26f6dfeaf1b88"},
		{"-run A5", "843cbe3241f3c36357584ebff98bd5ca8963c139ed8330e19369bd89ceab814d"},
		{"-run A6", "244aab5fe83ee289d52c5c2670a0ee28e0cb19d2ba85d5268a7888b9ab04b181"},
		{"-run E1", "2bb3f3da29a5959708950ff3e326b930fcdbb85bc19a63cbe9e3dbc867b70058"},
		{"-run E2", "51c6cc4c9f26902be338ac318c00d925b858a25dab885191e5e30ad2e4314e6f"},
		{"-run F10", "7b8c1c491b911848487cc0b193a023ea6ecb9e853eec1da4139a73a36ceb9e52"},
		{"-run F11", "ae403657a44a53dba33863bafd577cb18b2789b15c1adaec7f416ee1eeb3df07"},
		{"-run F12", "c2d48f0e1a48b2587aa585479c55d40cb6787925543af9dd2b1a5d1e4d563ddb"},
		{"-run F13", "7ab389d327236fba533e5184ac442e609d3fa7cc0a679c86544b33a25caafef6"},
		{"-run F4", "22c95395abd5b972246a06c875f218befd008e1d8f03b9697d5a26a31770c2c8"},
		{"-run F9", "2a6f3652e128157e8c1523e70e9678ab34a8b8e117b7c3eee6142ca31aafb301"},
		{"-run S1", "0da4769a2f38d7330a65d79be430501c13018be2b53016b7df9b2323b2e850e4"},
		{"-run S2", "401180896a262383cb690dac87c851fe7c30276e4257fb37b1b49017f79c7947"},
		{"-run S3", "2e908a3bb6be62fcee1439a4ac3cfc391a146bcf2e89c99e2cf0e12c14aa6d32"},
		{"-run S6", "c86900b621ff2b74728747a197c7c17cfc2296ab199b17dbef8400543c0e8852"},
		{"-run S7", "ee175f5fd238e003d768633cbc19d590b9a0adb0ae1fbfe5699ae35c08d1b8b4"},
		{"-run T1", "b87bab91002127cd7eaec63fcc538791ee09f5f9a53262a1c2f15170f110ba5c"},
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
