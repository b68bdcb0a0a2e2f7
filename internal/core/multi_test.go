package core

import (
	"math"
	"testing"

	"e2edt/internal/rftp"
	"e2edt/internal/sim"
	"e2edt/internal/units"
)

// smallOpt keeps the pre-created Dataset/Output pair small so per-job files
// fit alongside them.
func smallOpt() Options {
	opt := DefaultOptions()
	opt.DatasetSize = 2 * units.GB
	return opt
}

// TestConcurrentJobsShareSystem is the multi-transfer regression test: two
// RFTP jobs started on a live System (same direction, disjoint job files)
// must both complete with their full payload and uncorrupted CPU
// accounting.
func TestConcurrentJobsShareSystem(t *testing.T) {
	sys := newSys(t, smallOpt())
	size := 20 * float64(units.GB)
	cfg := rftp.DefaultConfig()
	p := rftp.DefaultParams()

	var done [2]sim.Time
	var trs [2]*rftp.Transfer
	for i := 0; i < 2; i++ {
		name := string(rune('a' + i))
		src, dst, err := sys.CreateJobFiles(Forward, name, int64(size))
		if err != nil {
			t.Fatal(err)
		}
		i := i
		tr, err := sys.StartRFTPOn(Forward, cfg, p, src, dst, size,
			func(now sim.Time) { done[i] = now })
		if err != nil {
			t.Fatal(err)
		}
		trs[i] = tr
	}
	sys.Engine().Run()
	for i := range done {
		if done[i] <= 0 {
			t.Fatalf("job %d never completed", i)
		}
		if got := trs[i].Transferred(); math.Abs(got-size)/size > 1e-6 {
			t.Fatalf("job %d moved %v of %v", i, got, size)
		}
	}

	// CPU accounting: a single job of the combined size on a fresh system
	// must burn the same user-category CPU (same bytes, same per-byte cost).
	ref := newSys(t, smallOpt())
	src, dst, err := ref.CreateJobFiles(Forward, "ref", int64(2*size))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := ref.StartRFTPOn(Forward, cfg, p, src, dst, 2*size, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref.Engine().Run()
	if got := rt.Transferred(); math.Abs(got-2*size)/size > 1e-6 {
		t.Fatalf("reference moved %v of %v", got, 2*size)
	}
	twoJobs := sys.A.Front.HostCPUReport().ByCategory["user"]
	oneJob := ref.A.Front.HostCPUReport().ByCategory["user"]
	if math.Abs(twoJobs-oneJob)/oneJob > 1e-6 {
		t.Fatalf("user CPU for 2×%v bytes = %v, single %v-byte job = %v",
			size, twoJobs, 2*size, oneJob)
	}
}

func TestJobFilesRespectCapacity(t *testing.T) {
	sys := newSys(t, smallOpt())
	free := sys.A.FS.Free()
	if _, _, err := sys.CreateJobFiles(Forward, "big", free+1); err == nil {
		t.Fatal("oversized job file should fail")
	}
	// A failed pair must not leak the source allocation.
	if _, _, err := sys.CreateJobFiles(Forward, "big", free+1); err == nil {
		t.Fatal("oversized job file should still fail")
	}
	src, dst, err := sys.CreateJobFiles(Forward, "ok", units.GB)
	if err != nil {
		t.Fatal(err)
	}
	if src == nil || dst == nil {
		t.Fatal("job files missing")
	}
	if err := sys.RemoveJobFiles(Forward, "ok"); err != nil {
		t.Fatal(err)
	}
	if sys.A.FS.Free() != free {
		t.Fatalf("capacity leaked: free %d, want %d", sys.A.FS.Free(), free)
	}
}
