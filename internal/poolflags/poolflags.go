// Package poolflags is the one way a command builds a pool from flags:
// the flag vocabulary that shapes an xomp.ShardedPool (preset, workers,
// shards, backlog, admission policy, BOTS input scale), its validation,
// and its defaults live here, so cmd/jobserved and cmd/loadgen cannot
// drift apart.
package poolflags

import (
	"flag"
	"fmt"
	"strings"

	"repro/internal/bots"
	"repro/xomp"
)

// Flags holds the parsed pool flags.
type Flags struct {
	Runtime string
	Workers int
	Shards  int
	Backlog int
	Admit   string
	Scale   string
}

// Register adds the pool flags to fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Runtime, "runtime", "xgomptb", "runtime preset: "+strings.Join(xomp.PresetNames(), "|"))
	fs.IntVar(&f.Workers, "workers", 4, "total workers across shards")
	fs.IntVar(&f.Shards, "shards", 1, "NUMA shards (each one serving team)")
	fs.IntVar(&f.Backlog, "backlog", 0, "admission queue capacity per class (0 = 4x workers)")
	fs.StringVar(&f.Admit, "admit", "block", "admission policy: block|reject|shed|wfq")
	fs.StringVar(&f.Scale, "scale", "test", "BOTS input scale for named-app jobs: test|small|medium|large")
	return f
}

// Config validates the parsed flags and returns the pool they describe
// plus the BOTS input scale. The team is sized per shard (-workers / N
// for -shards N); the default, one shard, is a single team of all
// -workers.
func (f *Flags) Config() (xomp.ShardConfig, bots.Scale, error) {
	var cfg xomp.ShardConfig
	if f.Shards < 1 || f.Workers < 1 || f.Workers%f.Shards != 0 {
		return cfg, 0, fmt.Errorf("-shards %d must be >= 1 and divide -workers %d", f.Shards, f.Workers)
	}
	admit, err := parseAdmit(f.Admit)
	if err != nil {
		return cfg, 0, err
	}
	scale, err := bots.ParseScale(f.Scale)
	if err != nil {
		return cfg, 0, err
	}

	cfg.Shards = f.Shards
	cfg.Team = xomp.Preset(f.Runtime, f.Workers/f.Shards)
	cfg.Team.Backlog = f.Backlog
	cfg.Team.Admit = admit
	return cfg, scale, nil
}

// parseAdmit maps an -admit flag value to an admission policy (nil =
// block, the default).
func parseAdmit(name string) (xomp.AdmitPolicy, error) {
	switch name {
	case "block":
		return nil, nil
	case "reject":
		return xomp.RejectWhenFull{}, nil
	case "shed":
		return xomp.DeadlineShed{}, nil
	case "wfq":
		return &xomp.WFQAdmit{}, nil
	}
	return nil, fmt.Errorf("-admit %q: want block, reject, shed, or wfq", name)
}
