// Command profview renders a profile dump written by botsrun -profout (or
// any prof.Profile.Dump output) as the paper's Fig. 3 ASCII summaries: the
// per-thread timeline and the per-thread task-count bars, with imbalance
// and utilization ratios. It is the only reader of profile dumps; -trace
// also exports the dump as a Chrome trace-event file.
//
// Usage:
//
//	botsrun -app fib -runtime xgomp -profile -profout fib.json
//	profview -in fib.json -trace fib.trace.json
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/prof"
)

func main() {
	var (
		in    = flag.String("in", "", "profile dump file (required)")
		trace = flag.String("trace", "", "also write a Chrome trace-event JSON file here")
	)
	const width = 60 // bar width in columns
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "profview: -in is required")
		os.Exit(2)
	}
	f, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	snap, err := prof.Load(f)
	if err != nil {
		fatal(err)
	}
	if *trace != "" {
		tf, err := os.Create(*trace)
		if err != nil {
			fatal(err)
		}
		if err := snap.ExportTraceEvents(tf); err != nil {
			fatal(err)
		}
		if err := tf.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "trace written to", *trace, "(open in chrome://tracing or Perfetto)")
	}
	if err := snap.TimelineSummary(os.Stdout, width); err != nil {
		fatal(err)
	}
	fmt.Println()
	if err := snap.TaskCountSummary(os.Stdout, width); err != nil {
		fatal(err)
	}
	fmt.Printf("\nimbalance max/mean executed: %.2f\nutilization min/max: %.2f\n",
		snap.ImbalanceRatio(), snap.UtilizationRatio())
	fmt.Println()
	if err := snap.AdmissionSummary(os.Stdout); err != nil {
		fatal(err)
	}
	if len(snap.Tenants) > 0 {
		fmt.Println()
		if err := snap.TenantSummary(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "profview:", err)
	os.Exit(1)
}
