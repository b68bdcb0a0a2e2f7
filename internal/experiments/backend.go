package experiments

import (
	"fmt"
	"slices"

	"e2edt/internal/blockdev"
	"e2edt/internal/fabric"
	"e2edt/internal/fio"
	"e2edt/internal/fluid"
	"e2edt/internal/host"
	"e2edt/internal/iscsi"
	"e2edt/internal/iser"
	"e2edt/internal/metrics"
	"e2edt/internal/numa"
	"e2edt/internal/sim"
	"e2edt/internal/testbed"
	"e2edt/internal/units"
)

func init() {
	register("F7", ISER)
}

// backendRig is the §4.2 back-end testbed: initiator + target joined by two
// FDR links, six 50 GB tmpfs LUNs.
type backendRig struct {
	eng  *sim.Engine
	s    *fluid.Sim
	init *host.Host
	tgt  *host.Host
	sess *iscsi.Session
}

func newBackendRig(policy numa.Policy) *backendRig {
	eng := sim.NewEngine()
	s := fluid.NewSim(eng)
	hi := host.New("init", numa.MustNew(s, testbed.BackEndLAN("init")))
	ht := host.New("tgt", numa.MustNew(s, testbed.BackEndLAN("tgt")))
	var links []*fabric.Link
	for i := 0; i < 2; i++ {
		links = append(links, fabric.Connect(s, testbed.IBFDR56(fmt.Sprintf("ib%d", i)),
			hi, hi.M.Node(i), ht, ht.M.Node(i)))
	}
	tg := iscsi.NewTarget("tgt", ht, iscsi.DefaultTargetConfig(policy))
	for i := 0; i < 6; i++ {
		var homes []*numa.Node
		if policy == numa.PolicyBind {
			homes = []*numa.Node{ht.M.Node(i % 2)}
		} else {
			homes = ht.M.Nodes
		}
		tg.AddLUN(i, blockdev.NewRamdisk(ht.M, fmt.Sprintf("lun%d", i), 50*units.GB, homes...))
	}
	initProc := hi.NewProcess("open-iscsi", policy, nil)
	mv := iser.NewMover(
		[]iser.Portal{iser.PortalFor(links[0], ht), iser.PortalFor(links[1], ht)},
		initProc.NewThread(), tg, iser.DefaultParams())
	return &backendRig{eng: eng, s: s, init: hi, tgt: ht, sess: iscsi.NewSession(tg, mv)}
}

// fioPoint runs one fio configuration for the compressed steady-state
// window and returns (bandwidth bytes/s, target CPU core-seconds).
func fioPoint(policy numa.Policy, op iscsi.Op, blockSize int64) (float64, float64) {
	r := newBackendRig(policy)
	const window = 4.0
	mkBuf := func(lun, slot int) *numa.Buffer {
		if policy == numa.PolicyBind {
			return r.init.M.NewBuffer("fio", r.init.M.Node(lun%2))
		}
		return r.init.M.InterleavedBuffer("fio")
	}
	res, err := fio.Run(r.eng, r.sess, mkBuf, fio.JobSpec{
		Name: "fio", Op: op, BlockSize: blockSize, IODepth: 4, Duration: window,
	})
	if err != nil {
		panic(err)
	}
	cpu := r.tgt.HostCPUReport().Total / window * 100 // percent of one core
	return res[0].Bandwidth(), cpu
}

// fioBlockSizes is the Figure 7/8 sweep.
var fioBlockSizes = []int64{256 * units.KB, units.MB, 4 * units.MB, 16 * units.MB}

// ISER regenerates Figures 7 and 8 from one sweep: iSER bandwidth and
// target CPU, default scheduling vs NUMA tuning, for reads and writes
// across block sizes.
func ISER() Result {
	bw := metrics.Table{
		Title:   "iSER bandwidth: default vs NUMA-tuned (Fig. 7)",
		Headers: []string{"op", "block", "default", "NUMA-tuned", "gain"},
	}
	cpu := metrics.Table{
		Title:   "iSER target CPU: default vs NUMA-tuned (Fig. 8)",
		Headers: []string{"op", "block", "default CPU", "NUMA-tuned CPU", "ratio"},
	}
	var series []metrics.Series
	gains := map[iscsi.Op][]float64{}
	ratios := map[iscsi.Op][]float64{}
	tuned4 := map[iscsi.Op]float64{}
	for _, op := range []iscsi.Op{iscsi.OpRead, iscsi.OpWrite} {
		def := metrics.Series{Name: fmt.Sprintf("%s-default-Gbps", op)}
		bind := metrics.Series{Name: fmt.Sprintf("%s-tuned-Gbps", op)}
		for _, bs := range fioBlockSizes {
			d, dCPU := fioPoint(numa.PolicyDefault, op, bs)
			b, bCPU := fioPoint(numa.PolicyBind, op, bs)
			def.Add(float64(bs), units.ToGbps(d))
			bind.Add(float64(bs), units.ToGbps(b))
			gain := (b/d - 1) * 100
			bw.AddRow(op.String(), units.FormatBytes(bs),
				units.FormatRate(d), units.FormatRate(b), fmt.Sprintf("%+.1f%%", gain))
			cpu.AddRow(op.String(), units.FormatBytes(bs),
				fmt.Sprintf("%.0f%%", dCPU), fmt.Sprintf("%.0f%%", bCPU),
				fmt.Sprintf("%.2f×", dCPU/bCPU))
			gains[op] = append(gains[op], gain)
			ratios[op] = append(ratios[op], dCPU/bCPU)
			if bs == 4*units.MB {
				tuned4[op] = b
			}
		}
		series = append(series, def, bind)
	}
	rg, wg := gains[iscsi.OpRead], gains[iscsi.OpWrite]
	rr, wr := ratios[iscsi.OpRead], ratios[iscsi.OpWrite]
	return Result{
		ID:     "F7",
		Title:  "iSER bandwidth and target CPU vs NUMA policy, Figs. 7/8",
		Tables: []metrics.Table{bw, cpu},
		Series: series,
		Claims: []Claim{
			{"smallest read gain from tuning (%)", "+7.6%", slices.Min(rg), 0, inf},
			{"largest read gain from tuning (%)", "+7.6%", slices.Max(rg), -inf, 15},
			{"smallest write gain from tuning (%)", "up to +19%", slices.Min(wg), 0, inf},
			{"write gain from tuning at 4MB (%)", "+19% at ≥ 4MB", wg[2], 12, 25},
			{"write gain from tuning at 16MB (%)", "+19% at ≥ 4MB", wg[3], 12, 25},
			{"tuned read over tuned write at 4MB (%)", "+7.5%",
				(tuned4[iscsi.OpRead]/tuned4[iscsi.OpWrite] - 1) * 100, 0, 15},
			{"write CPU default/tuned, smallest", "≈3×", slices.Min(wr), 2, 4},
			{"write CPU default/tuned, largest", "≈3×", slices.Max(wr), 2, 4},
			{"read CPU default/tuned, smallest", "not significant", slices.Min(rr), 1, 1.5},
			{"read CPU default/tuned, largest", "not significant", slices.Max(rr), 1, 1.5},
		},
	}
}
