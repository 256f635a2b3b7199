package poolflags

import (
	"flag"
	"io"
	"testing"

	"repro/internal/bots"
	"repro/xomp"
)

// parse registers the pool flags on a fresh FlagSet and parses args.
func parse(t *testing.T, minShards int, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs, minShards)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestConfigShapes(t *testing.T) {
	cases := []struct {
		name        string
		minShards   int
		args        []string
		shards      int
		teamWorkers int
		budget      int // 0: elastic off
	}{
		{name: "service defaults", minShards: 1, shards: 1, teamWorkers: 4},
		{name: "workers split per shard", minShards: 1, args: []string{"-workers", "8", "-shards", "2"}, shards: 2, teamWorkers: 4},
		{name: "unsharded keeps all workers in one team", minShards: 0, args: []string{"-workers", "8"}, shards: 0, teamWorkers: 8},
		{name: "elastic budget defaults to half the workers", minShards: 1,
			args: []string{"-workers", "8", "-shards", "2", "-elastic"}, shards: 2, teamWorkers: 4, budget: 4},
		{name: "explicit elastic budget", minShards: 0,
			args: []string{"-workers", "8", "-shards", "4", "-elastic", "-budget", "6"}, shards: 4, teamWorkers: 2, budget: 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, scale, err := parse(t, tc.minShards, tc.args...).Config()
			if err != nil {
				t.Fatal(err)
			}
			if cfg.Shards != tc.shards || cfg.Team.Workers != tc.teamWorkers {
				t.Errorf("got %d shards x %d workers, want %d x %d", cfg.Shards, cfg.Team.Workers, tc.shards, tc.teamWorkers)
			}
			if cfg.Elastic.Enabled != (tc.budget > 0) || cfg.Elastic.TotalBudget != tc.budget {
				t.Errorf("elastic = %+v, want budget %d", cfg.Elastic, tc.budget)
			}
			if scale != bots.ScaleTest {
				t.Errorf("scale = %v, want test", scale)
			}
		})
	}
}

func TestConfigCarriesPolicies(t *testing.T) {
	cfg, scale, err := parse(t, 1, "-admit", "reject", "-policy", "adaptive", "-backlog", "7", "-scale", "small").Config()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cfg.Team.Admit.(xomp.RejectWhenFull); !ok {
		t.Errorf("Admit = %T, want RejectWhenFull", cfg.Team.Admit)
	}
	if cfg.Team.Policy.Name != "adaptive" || cfg.Team.Backlog != 7 || scale != bots.ScaleSmall {
		t.Errorf("got policy %q backlog %d scale %v", cfg.Team.Policy.Name, cfg.Team.Backlog, scale)
	}
	if cfg, _, _ := parse(t, 1).Config(); cfg.Team.Admit != nil || cfg.Team.Policy.Name != "" {
		t.Errorf("defaults set Admit %T / policy %q, want the team's own defaults", cfg.Team.Admit, cfg.Team.Policy.Name)
	}
}

func TestConfigRejects(t *testing.T) {
	cases := []struct {
		name      string
		minShards int
		args      []string
	}{
		{"a service with no shard", 1, []string{"-shards", "0"}},
		{"negative shards", 0, []string{"-shards", "-1"}},
		{"shards not dividing workers", 1, []string{"-workers", "4", "-shards", "3"}},
		{"no workers", 1, []string{"-workers", "0"}},
		{"elastic without a second shard", 1, []string{"-elastic"}},
		{"budget without elastic", 1, []string{"-budget", "2"}},
		{"unknown admission policy", 1, []string{"-admit", "maybe"}},
		{"unknown balancing policy", 1, []string{"-policy", "nope"}},
		{"unknown scale", 1, []string{"-scale", "huge"}},
	}
	for _, tc := range cases {
		if _, _, err := parse(t, tc.minShards, tc.args...).Config(); err == nil {
			t.Errorf("%s: Config accepted %v", tc.name, tc.args)
		}
	}
}
