package experiments

import (
	"fmt"
	"math"

	"e2edt/internal/blockdev"
	"e2edt/internal/chart"
	"e2edt/internal/core"
	"e2edt/internal/host"
	"e2edt/internal/metrics"
	"e2edt/internal/numa"
	"e2edt/internal/pipe"
	"e2edt/internal/rftp"
	"e2edt/internal/testbed"
	"e2edt/internal/units"
)

func init() {
	register("A3", CreditAblation)
	register("A4", DirectIOAblation)
	register("A5", StorageMediaAblation)
	register("A6", FileSizeAblation)
}

// CreditAblation sweeps RFTP's credit (pipeline) depth on the WAN: with
// too few outstanding blocks a stream cannot cover the 95 ms × 40 Gbps
// bandwidth-delay product, the design choice DESIGN.md §5.3 calls out.
func CreditAblation() Result {
	const window = 20.0
	tb := metrics.Table{
		Title:   "RFTP WAN throughput vs credit depth (4 streams, 4MB blocks)",
		Headers: []string{"credits/stream", "window", "throughput", "utilization"},
	}
	s := metrics.Series{Name: "credits-Gbps"}
	for _, credits := range []int{1, 2, 4, 8, 16, 32, 64} {
		w := testbed.NewWAN()
		cfg := rftp.DefaultConfig()
		cfg.Streams = 4
		cfg.BlockSize = 4 * units.MB
		cfg.CreditsPerStream = credits
		tr, err := rftp.Start(w.LinkSlice(), w.A, cfg, rftp.DefaultParams(),
			pipe.Zero{}, pipe.Null{}, math.Inf(1), nil)
		if err != nil {
			panic(err)
		}
		w.Eng.RunFor(window)
		bw := tr.Transferred() / window
		tr.Stop()
		window_ := float64(credits) * float64(cfg.BlockSize)
		tb.AddRow(fmt.Sprintf("%d", credits),
			units.FormatBytes(int64(window_)),
			units.FormatRate(bw),
			fmt.Sprintf("%.0f%%", units.ToGbps(bw)/40*100))
		s.Add(float64(credits), units.ToGbps(bw))
	}
	return Result{
		ID:     "A3",
		Title:  "Pipeline/credit depth ablation (WAN)",
		Tables: []metrics.Table{tb},
		Series: []metrics.Series{s},
		Chart:  &chart.Options{XLabel: "credits per stream", YLabel: "Gbps", LogX: true},
		Claims: []Claim{
			{"smallest step as credits double", "", minStep(s.Values), 0.99, inf},
			{"1 credit/stream (Gbps)", "", s.Values[0], -inf, 3},
			{"64 credits/stream (Gbps)", "", s.Values[s.Len()-1], 38, inf},
		},
		Notes: []string{
			"the knee sits where 4 streams × credits × 4MB reaches the ≈475MB BDP",
		},
	}
}

// DirectIOAblation isolates GridFTP handicap #3: run RFTP end-to-end with
// and without direct I/O. Buffered mode pays a page-cache copy per byte on
// each front end, dragging CPU up and (when copy threads saturate)
// throughput down.
func DirectIOAblation() Result {
	const window = 20.0
	run := func(direct bool) (float64, float64) {
		sys := mustSystem()
		src := pipe.FileReader{File: sys.A.Dataset, Direct: direct}
		dst := pipe.FileWriter{File: sys.B.Output, Direct: direct}
		tr, err := rftp.Start(sys.TB.FrontLinks, sys.TB.Sender,
			rftp.DefaultConfig(), rftp.DefaultParams(), src, dst, math.Inf(1), nil)
		if err != nil {
			panic(err)
		}
		sys.Engine().RunFor(window)
		bw := tr.Transferred() / window
		cpu := sys.A.Front.HostCPUReport().TotalPercent(window) +
			sys.B.Front.HostCPUReport().TotalPercent(window)
		return bw, cpu
	}
	directBW, directCPU := run(true)
	bufBW, bufCPU := run(false)
	tb := metrics.Table{
		Title:   "RFTP end-to-end: O_DIRECT vs page cache",
		Headers: []string{"mode", "throughput", "front-end CPU (both hosts)"},
	}
	tb.AddRow("direct I/O", units.FormatRate(directBW), fmt.Sprintf("%.0f%%", directCPU))
	tb.AddRow("buffered", units.FormatRate(bufBW), fmt.Sprintf("%.0f%%", bufCPU))
	return Result{
		ID:     "A4",
		Title:  "Direct I/O ablation",
		Tables: []metrics.Table{tb},
		Claims: []Claim{
			{"direct/buffered throughput", "", directBW / bufBW, over(1), inf},
			{"buffered/direct CPU", "", bufCPU / directCPU, over(1), inf},
		},
		Notes: []string{
			"the paper lists the cache effect among GridFTP's three handicaps (§4.3)",
		},
	}
}

// StorageMediaAblation swaps the back-end media: the paper's tmpfs LUNs
// versus SSD (healthy and thermally throttled) versus magnetic disk, and
// measures the end-to-end RFTP rate each sustains.
func StorageMediaAblation() Result {
	const window = 20.0
	run := func(name string, factory func(store *host.Host, lun int, policy numa.Policy) blockdev.Device) float64 {
		opt := core.DefaultOptions()
		opt.DeviceFactory = factory
		sys, err := core.NewSystem(opt)
		if err != nil {
			panic(err)
		}
		tr, err := sys.StartRFTP(core.Forward, rftp.DefaultConfig(), rftp.DefaultParams(), math.Inf(1), nil)
		if err != nil {
			panic(err)
		}
		sys.Engine().RunFor(window)
		return tr.Transferred() / window
	}

	ram := run("tmpfs", nil)
	ssd := run("ssd", func(store *host.Host, lun int, policy numa.Policy) blockdev.Device {
		return blockdev.NewSSD(store.Sim, blockdev.DefaultSSDConfig(
			fmt.Sprintf("%s-ssd%d", store.Name, lun), 50*units.GB))
	})
	hdd := run("hdd", func(store *host.Host, lun int, policy numa.Policy) blockdev.Device {
		return blockdev.NewHDD(store.Sim, blockdev.DefaultHDDConfig(
			fmt.Sprintf("%s-hdd%d", store.Name, lun), 50*units.GB))
	})

	tb := metrics.Table{
		Title:   "End-to-end RFTP rate by back-end medium (6 LUNs/side)",
		Headers: []string{"medium", "throughput", "vs tmpfs"},
	}
	for _, row := range []struct {
		name string
		bw   float64
	}{{"tmpfs (paper)", ram}, {"PCIe SSD", ssd}, {"7200rpm HDD", hdd}} {
		tb.AddRow(row.name, units.FormatRate(row.bw), fmt.Sprintf("%.0f%%", row.bw/ram*100))
	}
	return Result{
		ID:     "A5",
		Title:  "Storage media ablation",
		Tables: []metrics.Table{tb},
		Claims: []Claim{
			{"tmpfs/SSD throughput", "", ram / ssd, over(1), inf},
			{"SSD/HDD throughput", "", ssd / hdd, over(1), inf},
			{"HDD-backed rate, 6 × 150 MB/s disks (Gbps)", "", units.ToGbps(hdd), -inf, 8},
		},
		Notes: []string{
			"tmpfs removes the media bottleneck entirely — the paper's justification for a memory back end",
			"SSD LUNs additionally thermal-throttle under sustained load (see A1)",
		},
	}
}

// FileSizeAblation regenerates the dataset-granularity ablation: the same
// 4 GB volume moved as many small files versus few large files over the
// WAN. Per-file control round trips (95 ms each) dominate small files —
// the "lots of small files" problem RFTP's pipelining addresses for block
// streams but not across file boundaries.
func FileSizeAblation() Result {
	tb := metrics.Table{
		Title:   "RFTP WAN dataset transfer: 4 GB in N files (4 streams)",
		Headers: []string{"file size", "files", "throughput", "per-file overhead"},
	}
	s := metrics.Series{Name: "filesize-Gbps"}
	for _, fileSize := range []int64{units.MB, 16 * units.MB, 256 * units.MB, units.GB} {
		n := int(4 * units.GB / fileSize)
		files := make([]rftp.FileSpec, n)
		for i := range files {
			files[i] = rftp.FileSpec{Name: fmt.Sprintf("f%d", i), Size: fileSize}
		}
		w := testbed.NewWAN()
		cfg := rftp.DefaultConfig()
		cfg.Streams = 4
		st, err := rftp.StartSet(w.LinkSlice(), w.A, cfg, rftp.DefaultParams(),
			pipe.Zero{}, pipe.Null{}, files, nil)
		if err != nil {
			panic(err)
		}
		w.Eng.Run()
		bw := st.Bandwidth()
		perFile := float64(w.Eng.Now()) / float64(n) * 4 // seconds per file per stream
		tb.AddRow(units.FormatBytes(fileSize), fmt.Sprintf("%d", n),
			units.FormatRate(bw), fmt.Sprintf("%.0f ms", perFile*1e3))
		s.Add(float64(fileSize), units.ToGbps(bw))
	}
	return Result{
		ID:     "A6",
		Title:  "Dataset file-size ablation (WAN)",
		Tables: []metrics.Table{tb},
		Series: []metrics.Series{s},
		Chart:  &chart.Options{XLabel: "file size", YLabel: "Gbps", LogX: true},
		Claims: []Claim{
			{"smallest step as files grow", "", minStep(s.Values), over(1), inf},
			{"1MB files (Gbps)", "", s.Values[0], -inf, 2},
		},
		Notes: []string{
			"each file pays a control round trip (95 ms); small files are latency-bound",
		},
	}
}
