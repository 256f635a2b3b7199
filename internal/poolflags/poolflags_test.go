package poolflags

import (
	"flag"
	"io"
	"testing"

	"repro/internal/bots"
	"repro/xomp"
)

// parse registers the pool flags on a fresh FlagSet and parses args.
func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestConfigShapes(t *testing.T) {
	cases := []struct {
		name        string
		args        []string
		shards      int
		teamWorkers int
	}{
		{name: "service defaults", shards: 1, teamWorkers: 4},
		{name: "workers split per shard", args: []string{"-workers", "8", "-shards", "2"}, shards: 2, teamWorkers: 4},
		{name: "one shard keeps all workers in one team", args: []string{"-workers", "8"}, shards: 1, teamWorkers: 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, scale, err := parse(t, tc.args...).Config()
			if err != nil {
				t.Fatal(err)
			}
			if cfg.Shards != tc.shards || cfg.Team.Workers != tc.teamWorkers {
				t.Errorf("got %d shards x %d workers, want %d x %d", cfg.Shards, cfg.Team.Workers, tc.shards, tc.teamWorkers)
			}
			if scale != bots.ScaleTest {
				t.Errorf("scale = %v, want test", scale)
			}
		})
	}
}

func TestConfigCarriesPolicies(t *testing.T) {
	cfg, scale, err := parse(t, "-admit", "reject", "-backlog", "7", "-scale", "small").Config()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cfg.Team.Admit.(xomp.RejectWhenFull); !ok {
		t.Errorf("Admit = %T, want RejectWhenFull", cfg.Team.Admit)
	}
	if cfg.Team.Backlog != 7 || scale != bots.ScaleSmall {
		t.Errorf("got backlog %d scale %v", cfg.Team.Backlog, scale)
	}
	if cfg, _, _ := parse(t).Config(); cfg.Team.Admit != nil {
		t.Errorf("defaults set Admit %T, want the team's own default", cfg.Team.Admit)
	}
}

func TestConfigRejects(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"zero shards (there is no unsharded pool)", []string{"-shards", "0"}},
		{"negative shards", []string{"-shards", "-1"}},
		{"shards not dividing workers", []string{"-workers", "4", "-shards", "3"}},
		{"no workers", []string{"-workers", "0"}},
		{"unknown admission policy", []string{"-admit", "maybe"}},
		{"unknown scale", []string{"-scale", "huge"}},
	}
	for _, tc := range cases {
		if _, _, err := parse(t, tc.args...).Config(); err == nil {
			t.Errorf("%s: Config accepted %v", tc.name, tc.args)
		}
	}
}
