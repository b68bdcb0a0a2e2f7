// Command rftp runs a simulated RFTP transfer and reports throughput and
// CPU cost, on either the LAN end-to-end testbed or the DOE ANI WAN loop.
//
// Usage examples:
//
//	rftp                          # end-to-end LAN transfer, tuned defaults
//	rftp -wan -streams 4 -bs 1MB  # memory-to-memory over the 95 ms loop
//	rftp -size 300GB              # finite transfer, report completion time
//	rftp -policy default          # without NUMA tuning
//
// Each run goes through experiments.RunTransferPoint, the harness F13
// uses.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"e2edt/internal/experiments"
	"e2edt/internal/numa"
	"e2edt/internal/rftp"
	"e2edt/internal/sim"
	"e2edt/internal/trace"
	"e2edt/internal/units"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args into one transfer, runs it and prints its report; it
// returns the process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rftp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wan := fs.Bool("wan", false, "run memory-to-memory over the ANI 40G/95ms loop")
	streams := fs.Int("streams", 3, "parallel RDMA streams")
	bs := fs.String("bs", "4MB", "block size")
	credits := fs.Int("credits", 64, "outstanding blocks per stream")
	policy := fs.String("policy", "bind", "NUMA policy: bind or default")
	size := fs.String("size", "", "transfer size (e.g. 300GB); empty = 60 s open-ended run")
	duration := fs.Float64("t", 60, "open-ended run duration in simulated seconds")
	traceOut := fs.Bool("trace", false, "log simulation trace events to stderr")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	policies := map[string]numa.Policy{"bind": numa.PolicyBind, "default": numa.PolicyDefault}
	pol, ok := policies[*policy]
	if !ok {
		fmt.Fprintf(stderr, "rftp: -policy %q: want bind or default\n", *policy)
		return 2
	}

	spec := experiments.TransferRunSpec{WAN: *wan, Size: math.Inf(1), Window: sim.Duration(*duration)}
	blockSize, err := units.ParseBlockSize(*bs)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	spec.Config = rftp.Config{
		Streams:          *streams,
		BlockSize:        blockSize,
		CreditsPerStream: *credits,
		Policy:           pol,
	}
	if *size != "" {
		n, err := units.ParseBlockSize(*size)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		spec.Size = float64(n)
	}
	label := "LAN end-to-end (SAN → SAN)"
	if *traceOut {
		spec.Tracer = trace.NewLogger(stderr, "rftp", "fabric")
	}
	if *wan {
		label = "WAN memory-to-memory"
		if *traceOut {
			spec.Tracer = trace.NewLogger(stderr)
		}
	}

	r, err := experiments.RunTransferPoint(spec)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s: moved %s at %s\n", label,
		units.FormatBytes(int64(r.Moved)), units.FormatRate(r.Rate))
	if r.DoneAt > 0 {
		fmt.Fprintf(stdout, "completed at t=%.2fs (simulated)\n", float64(r.DoneAt))
	}
	fmt.Fprintf(stdout, "sender CPU: %.0f%%  receiver CPU: %.0f%%\n", r.SenderCPU, r.ReceiverCPU)
	return 0
}
