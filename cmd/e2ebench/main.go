// Command e2ebench regenerates the paper's tables and figures and checks
// each experiment's claims — paper figures and scenario gates, each an
// inclusive band on one measured quantity.
//
// Usage:
//
//	e2ebench              # run every experiment
//	e2ebench -list        # list experiment IDs
//	e2ebench -run F9,F13  # run selected experiments
//
// Every result prints in full; the command then exits 1 if any claim lies
// outside its band, naming each on stderr.
//
// Experiment IDs follow DESIGN.md: E1 (motivating iperf), E2 (STREAM),
// F4 (cost breakdown), T1 (testbed table), F7 (iSER bandwidth and CPU,
// Figs. 7/8), F9–F12 (end-to-end uni/bi-directional), F13 (WAN bandwidth
// and CPU, Figs. 13/14),
// A1–A6 (ablations), S1–S8 (scenarios: scheduler, chaos, rail failover,
// adaptive placement, cluster scale and chaos, gray failure, object
// gateway).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"e2edt/internal/experiments"
)

func main() {
	list := flag.Bool("list", false, "list experiment IDs and exit")
	run := flag.String("run", "", "comma-separated experiment IDs (default: all)")
	charts := flag.Bool("chart", false, "render ASCII charts for experiments with series")
	md := flag.Bool("md", false, "emit tables as markdown (for EXPERIMENTS.md-style reports)")
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	ids := experiments.IDs()
	if *run != "" {
		ids = strings.Split(*run, ",")
	}
	var failed []string
	for _, id := range ids {
		res, err := experiments.Run(strings.TrimSpace(id))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *md {
			fmt.Printf("### %s — %s\n\n", res.ID, res.Title)
			for _, tb := range res.Tables {
				fmt.Println(tb.Markdown())
			}
			if len(res.Claims) > 0 {
				ct := res.ClaimTable()
				fmt.Println(ct.Markdown())
			}
			for _, n := range res.Notes {
				fmt.Printf("> %s\n", n)
			}
			fmt.Println()
		} else {
			fmt.Println(res)
		}
		if *charts {
			if c := res.RenderChart(); c != "" {
				fmt.Println(c)
			}
		}
		for _, c := range res.Failed() {
			failed = append(failed, fmt.Sprintf("%s: %s = %v outside %s", res.ID, c.Quantity, c.Measured, c.Band()))
		}
	}
	if len(failed) > 0 {
		for _, f := range failed {
			fmt.Fprintln(os.Stderr, "e2ebench: claim failed:", f)
		}
		os.Exit(1)
	}
}
