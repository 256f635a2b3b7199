// Command adaptive is the adaptive-policy quick start: one serving pool
// whose DLB configuration retunes itself as the workload's granularity
// shifts.
//
// The pool runs under Policy{Name: "adaptive"}: every worker publishes
// uniformly sampled, EWMA-smoothed load signals (task service time, task
// rate, idle ratio) to the team's signal plane, and a controller
// classifies the aggregate into the paper's Table IV granularity classes,
// retuning the live DLB configuration when the class durably changes.
// The program submits a fine-grained phase (many empty tasks per job),
// then a coarse-grained phase (few ~2ms tasks), then fine again, and
// prints the controller's strategy changes — work stealing with small
// steals for the fine phases, redirect-push with large steals for the
// coarse one.
package main

import (
	"fmt"
	"time"

	"repro/internal/simnuma"
	"repro/xomp"
)

func main() {
	cfg := xomp.Preset("xgomptb", 4)
	cfg.Policy = xomp.Policy{
		Name:       "adaptive",
		Interval:   2 * time.Millisecond,
		Hysteresis: 2,
	}
	pool := xomp.MustPool(cfg)
	defer pool.Close()
	team := pool.Team(0) // the one-shard pool's serving team

	fine := func(w *xomp.Worker) {
		for i := 0; i < 4000; i++ {
			w.Spawn(func(*xomp.Worker) {})
		}
		w.TaskWait()
	}
	coarse := func(w *xomp.Worker) {
		for i := 0; i < 32; i++ {
			w.Spawn(func(*xomp.Worker) { simnuma.Spin(2_000_000) })
		}
		w.TaskWait()
	}

	phase := func(name string, body xomp.TaskFunc, jobs int) {
		start := time.Now()
		for i := 0; i < jobs; i++ {
			j, err := pool.Submit(body)
			if err != nil {
				panic(err)
			}
			if err := j.Wait(); err != nil {
				panic(err)
			}
		}
		sig := team.Signals()
		fmt.Printf("%-6s phase: %2d jobs in %7v  (signal plane: service %9v, dlb %v ns=%d)\n",
			name, jobs, time.Since(start).Round(time.Millisecond),
			time.Duration(sig.ServiceNS), team.DLB().Strategy, team.DLB().NSteal)
	}

	phase("fine", fine, 30)
	phase("coarse", coarse, 10)
	phase("fine", fine, 30)

	trace := team.PolicyTrace()
	fmt.Printf("\n%d strategy changes by the adaptive controller:\n", len(trace))
	for _, sw := range trace {
		fmt.Printf("  %10v  %s  =>  %s\n",
			time.Duration(sw.At).Round(time.Microsecond), sw.From, sw.To)
	}
	if len(trace) == 0 {
		fmt.Println("  (none — host too noisy for a stable classification)")
	}
}
