// Command benchall regenerates the paper's tables and figures as text
// tables on stdout.
//
// Usage:
//
//	benchall -list
//	benchall -exp fig4 -workers 8 -scale small -reps 3
//	benchall -exp all -scale test
//
// Experiment ids match the paper: fig1, fig3, fig4, fig5, fig6, fig7,
// fig8, fig9, fig10, fig11, table1, table2, table3, table4.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/bots"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		list    = flag.Bool("list", false, "list experiments and exit")
		workers = flag.Int("workers", 0, "team size (0 = default)")
		zones   = flag.Int("zones", 0, "synthetic NUMA zones (0 = default)")
		scale   = flag.String("scale", "test", "input scale: test|small|medium|large")
		reps    = flag.Int("reps", 0, "timed repetitions per cell (0 = default)")
		verify  = flag.Bool("verify", false, "verify benchmark outputs during timing")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		for _, e := range bench.Extensions {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return
	}

	sc, err := bots.ParseScale(*scale)
	if err != nil {
		fatal(err)
	}
	opts := bench.Options{
		Workers: *workers,
		Zones:   *zones,
		Scale:   sc,
		Reps:    *reps,
		Verify:  *verify,
	}

	ids := strings.Split(*exp, ",")
	switch *exp {
	case "all":
		ids = nil
		for _, e := range bench.Experiments {
			ids = append(ids, e.ID)
		}
	case "ext":
		ids = nil
		for _, e := range bench.Extensions {
			ids = append(ids, e.ID)
		}
	}
	for _, id := range ids {
		e, ok := bench.AnyByID(strings.TrimSpace(id))
		if !ok {
			fatal(fmt.Errorf("unknown experiment %q (try -list)", id))
		}
		start := time.Now()
		fmt.Printf("== %s: %s\n", e.ID, e.Title)
		if err := e.Run(opts, os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Printf("-- %s done in %v\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchall:", err)
	os.Exit(1)
}
