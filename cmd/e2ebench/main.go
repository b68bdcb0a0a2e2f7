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
	"io"
	"os"
	"strings"

	"e2edt/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, runs the selected experiments and prints each result;
// it returns the process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list experiment IDs and exit")
	ids := fs.String("run", "", "comma-separated experiment IDs (default: all)")
	charts := fs.Bool("chart", false, "render ASCII charts for experiments with series")
	md := fs.Bool("md", false, "emit tables as markdown (for EXPERIMENTS.md-style reports)")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}

	selected := experiments.IDs()
	if *ids != "" {
		selected = strings.Split(*ids, ",")
	}
	var failed []string
	for _, id := range selected {
		res, err := experiments.Run(strings.TrimSpace(id))
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if *md {
			fmt.Fprintf(stdout, "### %s — %s\n\n", res.ID, res.Title)
			for _, tb := range res.Tables {
				fmt.Fprintln(stdout, tb.Markdown())
			}
			if len(res.Claims) > 0 {
				ct := res.ClaimTable()
				fmt.Fprintln(stdout, ct.Markdown())
			}
			for _, n := range res.Notes {
				fmt.Fprintf(stdout, "> %s\n", n)
			}
			fmt.Fprintln(stdout)
		} else {
			fmt.Fprintln(stdout, res)
		}
		if *charts {
			if c := res.RenderChart(); c != "" {
				fmt.Fprintln(stdout, c)
			}
		}
		for _, c := range res.Failed() {
			failed = append(failed, fmt.Sprintf("%s: %s = %v outside %s", res.ID, c.Quantity, c.Measured, c.Band()))
		}
	}
	for _, f := range failed {
		fmt.Fprintln(stderr, "e2ebench: claim failed:", f)
	}
	if len(failed) > 0 {
		return 1
	}
	return 0
}
