// Command botsrun executes one BOTS benchmark once on one runtime preset,
// over two synthetic NUMA zones, and reports timing, verification, and
// the paper's runtime statistics.
//
// Usage:
//
//	botsrun -app sort -runtime xgomptb+naws -workers 8 -scale small
//	botsrun -app fib -runtime gomp -profile -profout fib.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bots"
	"repro/internal/core"
	"repro/internal/numa"
	"repro/internal/prof"
)

func main() {
	var (
		app     = flag.String("app", "fib", "benchmark: "+strings.Join(bots.Names, "|"))
		preset  = flag.String("runtime", "xgomptb", "runtime preset: "+strings.Join(core.PresetNames(), "|"))
		workers = flag.Int("workers", 4, "team size")
		scale   = flag.String("scale", "test", "input scale: test|small|medium|large")
		profile = flag.Bool("profile", false, "record the event timeline")
		profOut = flag.String("profout", "", "write the profile dump (JSON) to this file")
	)
	const zones = 2
	flag.Parse()

	sc, err := bots.ParseScale(*scale)
	if err != nil {
		fatal(err)
	}
	b, err := bots.New(*app, sc)
	if err != nil {
		fatal(err)
	}
	cfg := core.Preset(*preset, *workers)
	cfg.Topology = numa.Synthetic(*workers, zones)
	cfg.Profile = *profile
	tm, err := core.NewTeam(cfg)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("%s (%s) on %s, %d workers, %d zones\n", b.Name(), b.Params(), *preset, *workers, zones)
	start := time.Now()
	b.RunParallel(tm)
	fmt.Printf("run: %v\n", time.Since(start).Round(time.Microsecond))
	if err := b.Verify(); err != nil {
		fatal(err)
	}
	fmt.Println("verify: ok")

	p := tm.Profile()
	fmt.Printf("tasks: created=%d executed=%d (self=%d local=%d remote=%d)\n",
		p.Sum(prof.CntTasksCreated), p.Sum(prof.CntTasksExecuted),
		p.Sum(prof.CntTasksSelf), p.Sum(prof.CntTasksLocal), p.Sum(prof.CntTasksRemote))
	fmt.Printf("placement: static=%d immediate=%d\n",
		p.Sum(prof.CntStaticPush), p.Sum(prof.CntImmExec))
	if tm.Config().DLB.Strategy != core.DLBNone {
		fmt.Printf("dlb: sent=%d handled=%d withSteal=%d stolen=%d (local=%d remote=%d)\n",
			p.Sum(prof.CntReqSent), p.Sum(prof.CntReqHandled), p.Sum(prof.CntReqHasSteal),
			p.Sum(prof.CntTasksStolen), p.Sum(prof.CntStolenLocal), p.Sum(prof.CntStolenRemote))
	}
	as := tm.AllocStats()
	fmt.Printf("alloc: fresh=%d localHits=%d remoteAcquires=%d globalHits=%d\n",
		as.FreshAllocs, as.LocalHits, as.RemoteAcquires, as.GlobalHits)

	if *profOut != "" {
		f, err := os.Create(*profOut)
		if err != nil {
			fatal(err)
		}
		if err := p.Dump(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Println("profile written to", *profOut)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "botsrun:", err)
	os.Exit(1)
}
