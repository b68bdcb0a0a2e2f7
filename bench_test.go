// Package e2edt's root benchmark harness regenerates every table and
// figure in the paper's evaluation as a Go benchmark, one sub-benchmark per
// paper experiment (E*, F*, A*, T1), reporting each claim's measurement as
// a custom metric named after the claim's quantity. Run with:
//
//	go test -bench=. -benchmem
//
// Each iteration performs one full (virtual-time) run of the experiment,
// so wall-clock ns/op measures simulator performance while the custom
// metrics carry the reproduced results. The S* scenario experiments are
// checked by the experiments package's tests and by cmd/e2ebench.
package e2edt

import (
	"math"
	"strings"
	"testing"

	"e2edt/internal/core"
	"e2edt/internal/experiments"
	"e2edt/internal/rftp"
)

func BenchmarkPaper(b *testing.B) {
	for _, id := range experiments.IDs() {
		if strings.HasPrefix(id, "S") {
			continue
		}
		b.Run(id, func(b *testing.B) {
			var res experiments.Result
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = experiments.Run(id); err != nil {
					b.Fatal(err)
				}
			}
			for _, c := range res.Claims {
				// Metric units may not contain whitespace.
				b.ReportMetric(c.Measured, strings.Join(strings.Fields(c.Quantity), "_"))
			}
		})
	}
}

// BenchmarkSolver measures the fluid solver itself on the full LAN system
// (ablation: simulator cost per transfer setup + 10 simulated seconds).
func BenchmarkSolver(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, _ := core.NewSystem(core.DefaultOptions())
		sys.StartRFTP(core.Forward, rftp.DefaultConfig(), rftp.DefaultParams(), math.Inf(1), nil)
		sys.Engine().RunFor(10)
	}
}
