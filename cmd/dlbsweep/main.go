// Command dlbsweep runs a full DLB parameter sweep for one BOTS benchmark,
// printing a row per configuration — the raw data behind Table I.
//
// With -policy it sweeps over *named balancing policies* instead of the
// raw tunable grid: each fixed library entry (static, ws-fine … rp-coarse,
// naws, narp) becomes one row, and "adaptive" runs the auto-tuner to its
// fixed point first, reporting which fixed policy that fixed point
// corresponds to. -app then accepts a comma-separated list (or "all") so
// the convergence report covers multiple BOTS apps in one run.
//
// Usage:
//
//	dlbsweep -app sort -strategy naws -workers 8 -scale test
//	dlbsweep -app fp -strategy narp -nvictim 1,8,24 -nsteal 1,16,32 -tinterval 10,100 -plocal 0.03,1
//	dlbsweep -app all -policy static,ws-fine,ws-mid,rp-coarse,adaptive
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bots"
	"repro/internal/core"
	"repro/internal/numa"
)

func main() {
	var (
		app       = flag.String("app", "fib", "benchmark: "+strings.Join(bots.Names, "|")+" (comma list or \"all\" with -policy)")
		strategy  = flag.String("strategy", "naws", "narp|naws")
		workers   = flag.Int("workers", 4, "team size")
		zones     = flag.Int("zones", 2, "synthetic NUMA zones")
		scale     = flag.String("scale", "test", "input scale")
		reps      = flag.Int("reps", 1, "repetitions per configuration (min taken)")
		nvictim   = flag.String("nvictim", "1,8", "comma-separated Nvictim values")
		nsteal    = flag.String("nsteal", "1,16,32", "comma-separated Nsteal values")
		tinterval = flag.String("tinterval", "100", "comma-separated Tinterval values")
		plocal    = flag.String("plocal", "0.03,1", "comma-separated Plocal values")
		policies  = flag.String("policy", "", "sweep these named policies instead of the tunable grid (comma list, \"all\" = every policy incl. adaptive)")
	)
	flag.Parse()

	sc, err := bots.ParseScale(*scale)
	if err != nil {
		fatal(err)
	}
	if *policies != "" {
		if err := policySweep(*app, *policies, *workers, *zones, sc, *reps); err != nil {
			fatal(err)
		}
		return
	}
	strat := core.DLBWorkSteal
	switch *strategy {
	case "naws":
	case "narp":
		strat = core.DLBRedirectPush
	default:
		fatal(fmt.Errorf("unknown strategy %q", *strategy))
	}
	b, err := bots.New(*app, sc)
	if err != nil {
		fatal(err)
	}
	nvs, err := parseInts(*nvictim)
	if err != nil {
		fatal(err)
	}
	nss, err := parseInts(*nsteal)
	if err != nil {
		fatal(err)
	}
	tis, err := parseInts(*tinterval)
	if err != nil {
		fatal(err)
	}
	pls, err := parseFloats(*plocal)
	if err != nil {
		fatal(err)
	}

	top := numa.Synthetic(*workers, *zones)
	baselineCfg := core.Preset("xgomptb", *workers)
	baselineCfg.Topology = top
	base := timeRuns(core.MustTeam(baselineCfg), b, *reps)
	fmt.Printf("%s on %d workers (%d zones), scale=%v, static baseline %v\n",
		b.Name(), *workers, *zones, sc, base.Round(time.Microsecond))
	fmt.Printf("%-8s %-7s %-9s %-7s %-12s %s\n", "Nvictim", "Nsteal", "Tinterval", "Plocal", "time", "improvement")

	bestImp, bestLine := 0.0, ""
	for _, nv := range nvs {
		for _, ns := range nss {
			for _, ti := range tis {
				for _, pl := range pls {
					cfg := core.Preset("xgomptb", *workers)
					cfg.Topology = top
					cfg.DLB = core.DLBConfig{Strategy: strat, NVictim: nv, NSteal: ns, TInterval: ti, PLocal: pl}
					tm, err := core.NewTeam(cfg)
					if err != nil {
						fatal(err)
					}
					d := timeRuns(tm, b, *reps)
					imp := base.Seconds() / d.Seconds()
					line := fmt.Sprintf("%-8d %-7d %-9d %-7.2f %-12v %.2fx",
						nv, ns, ti, pl, d.Round(time.Microsecond), imp)
					fmt.Println(line)
					if imp > bestImp {
						bestImp, bestLine = imp, line
					}
				}
			}
		}
	}
	fmt.Printf("\nbest (%s): %s\n", *strategy, bestLine)
	if err := b.Verify(); err != nil {
		fatal(err)
	}
}

// policySweep times each named balancing policy on each requested app.
// The adaptive policy cannot meaningfully run region-at-a-time (its
// controller is a service-mode loop), so its row reports the *fixed
// point*: the auto-tuner (the same granularity classification the
// controller uses) is iterated until the installed configuration stops
// changing, the app is timed under that configuration, and the row names
// which fixed policy the controller converged to.
func policySweep(apps, policies string, workers, zones int, sc bots.Scale, reps int) error {
	names := strings.Split(policies, ",")
	if policies == "all" {
		names = core.PolicyNames()
	}
	appNames := strings.Split(apps, ",")
	if apps == "all" {
		appNames = bots.Names
	}
	top := numa.Synthetic(workers, zones)
	fmt.Printf("policy sweep on %d workers (%d zones), scale=%v\n", workers, zones, sc)
	fmt.Printf("%-10s %-18s %-12s %-12s %s\n", "app", "policy", "time", "improvement", "configuration")
	for _, appName := range appNames {
		b, err := bots.New(strings.TrimSpace(appName), sc)
		if err != nil {
			return err
		}
		baseCfg := core.Preset("xgomptb", workers)
		baseCfg.Topology = top
		base := timeRuns(core.MustTeam(baseCfg), b, reps)
		bestImp, bestName := 0.0, ""
		for _, name := range names {
			name = strings.TrimSpace(name)
			var (
				d     time.Duration
				desc  string
				label = name
			)
			if name == "adaptive" {
				cfg, converged, err := adaptiveFixedPoint(baseCfg, b)
				if err != nil {
					return err
				}
				tm, err := core.NewTeam(baseCfg)
				if err != nil {
					return err
				}
				if err := tm.Retune(cfg); err != nil {
					return err
				}
				d = timeRuns(tm, b, reps)
				label = "adaptive->" + policyNameFor(cfg, zones)
				desc = fmt.Sprintf("%+v", cfg)
				if !converged {
					desc += " (not converged)"
				}
			} else {
				cfg, ok := core.PolicyDLB(name, zones)
				if !ok {
					return fmt.Errorf("unknown policy %q (have %v)", name, core.PolicyNames())
				}
				c := baseCfg
				c.DLB = cfg
				tm, err := core.NewTeam(c)
				if err != nil {
					return err
				}
				d = timeRuns(tm, b, reps)
				desc = fmt.Sprintf("%+v", cfg)
			}
			imp := base.Seconds() / d.Seconds()
			fmt.Printf("%-10s %-18s %-12v %-12s %s\n", b.Name(), label,
				d.Round(time.Microsecond), fmt.Sprintf("%.2fx", imp), desc)
			if imp > bestImp {
				bestImp, bestName = imp, label
			}
			if err := b.Verify(); err != nil {
				return fmt.Errorf("%s under %s: %w", b.Name(), label, err)
			}
		}
		fmt.Printf("%-10s best: %s (%.2fx)\n", b.Name(), bestName, bestImp)
	}
	return nil
}

// adaptiveFixedPoint iterates AutoTune until the guideline configuration
// stops changing (at most 6 probes) and returns the fixed point.
func adaptiveFixedPoint(baseCfg core.Config, b bots.Benchmark) (core.DLBConfig, bool, error) {
	tm, err := core.NewTeam(baseCfg)
	if err != nil {
		return core.DLBConfig{}, false, err
	}
	var cfg core.DLBConfig
	for i := 0; i < 6; i++ {
		next, _, err := tm.AutoTune(b.RunTask)
		if err != nil {
			return core.DLBConfig{}, false, err
		}
		if i > 0 && next == cfg {
			return cfg, true, nil
		}
		cfg = next
	}
	return cfg, false, nil
}

// policyNameFor maps a DLB configuration back to the library entry it
// equals, or renders its strategy when it matches none.
func policyNameFor(cfg core.DLBConfig, zones int) string {
	for _, name := range core.PolicyNames() {
		if name == "adaptive" {
			continue
		}
		if d, ok := core.PolicyDLB(name, zones); ok && d == cfg {
			return name
		}
	}
	return cfg.Strategy.String()
}

func timeRuns(tm *core.Team, b bots.Benchmark, reps int) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		start := time.Now()
		b.RunParallel(tm)
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad int %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad float %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dlbsweep:", err)
	os.Exit(1)
}
