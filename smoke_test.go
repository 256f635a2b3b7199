// Smoke tests for the repository's main packages: every binary under cmd/
// must build, the flag-driven tools must print usage and exit 0 on -help,
// every tool but jobserved and repolint (covered by their own tests) runs
// once for real at test scale, and cmd/README.md documents exactly the
// tools that exist.
package repro_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// cmdMains are the flag-driven tools; -help must print a usage message and
// exit 0 (the flag package's ErrHelp convention).
var cmdMains = []string{
	"benchall", "botsrun", "jobserved", "loadgen", "posp", "profview", "whatif",
}

// cmdRequiredFlags pins load-bearing flags into each tool's -help output:
// a flag renamed or dropped without its docs is caught here, not by a
// user's broken script. Keyed by tool name; every entry must appear as a
// "-name" flag in the usage text.
var cmdRequiredFlags = map[string][]string{
	"loadgen": {"scenario", "trace", "record", "emit", "seed", "speed", "admit", "priority-mix", "shards",
		"mode", "addr", "listen", "rate", "size", "fleet", "fleet-size"},
	"jobserved": {"addr", "workers", "shards", "backlog", "admit", "scale", "window", "report"},
	"whatif":    {"in", "scenario", "seed", "shards", "speed", "reps"},
	"botsrun":   {"app", "profile"},
}

// buildMains compiles every main package once per test binary (both smoke
// tests share the output) and returns the directory holding the binaries.
var buildOnce struct {
	sync.Once
	dir string
	err error
}

func buildMains(t *testing.T) string {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go tool not in PATH: %v", err)
	}
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "repro-mains-*")
		if err != nil {
			buildOnce.err = err
			return
		}
		cmd := exec.Command(goTool, "build", "-o", dir, "./cmd/...")
		out, err := cmd.CombinedOutput()
		if err != nil {
			buildOnce.err = fmt.Errorf("go build ./cmd/...: %v\n%s", err, out)
			os.RemoveAll(dir)
			return
		}
		buildOnce.dir = dir
	})
	if buildOnce.err != nil {
		t.Fatal(buildOnce.err)
	}
	return buildOnce.dir
}

func TestMainsBuild(t *testing.T) {
	dir := buildMains(t)
	for _, name := range cmdMains {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("binary %s missing after build: %v", name, err)
		}
	}
}

func TestCmdHelpSmoke(t *testing.T) {
	dir := buildMains(t)
	for _, name := range cmdMains {
		name := name
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			cmd := exec.Command(filepath.Join(dir, name), "-help")
			cmd.Stdout = &out
			cmd.Stderr = &out
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s -help exited non-zero: %v\n%s", name, err, out.String())
			}
			if !strings.Contains(out.String(), "Usage of") {
				t.Fatalf("%s -help printed no usage:\n%s", name, out.String())
			}
			for _, f := range cmdRequiredFlags[name] {
				if !strings.Contains(out.String(), "-"+f) {
					t.Errorf("%s -help does not document -%s:\n%s", name, f, out.String())
				}
			}
		})
	}
}

// runTool runs one built tool under a 60 s watchdog and returns its
// combined output; the run must exit 0 unless wantFail is set, in which
// case it must exit non-zero.
func runTool(t *testing.T, dir string, wantFail bool, name string, args ...string) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, filepath.Join(dir, name), args...)
	cmd.Stdout = &out
	cmd.Stderr = &out
	err := cmd.Run()
	switch {
	case ctx.Err() != nil:
		t.Fatalf("%s %v did not finish within 60s:\n%s", name, args, out.String())
	case wantFail && err == nil:
		t.Fatalf("%s %v exited 0, want a failure:\n%s", name, args, out.String())
	case !wantFail && err != nil:
		t.Fatalf("%s %v: %v\n%s", name, args, err, out.String())
	}
	return out.String()
}

// TestToolsRun runs every tool but jobserved and repolint once at test
// scale, each asserting one line of its output.
func TestToolsRun(t *testing.T) {
	dir := buildMains(t)
	dump := filepath.Join(t.TempDir(), "fib.json")
	wantLine := func(t *testing.T, out, line string) {
		t.Helper()
		if !strings.Contains(out, line) {
			t.Fatalf("output lacks %q:\n%s", line, out)
		}
	}
	t.Run("botsrun", func(t *testing.T) {
		out := runTool(t, dir, false, "botsrun", "-app", "fib", "-scale", "test", "-workers", "2", "-profile", "-profout", dump)
		wantLine(t, out, "verify: ok")
	})
	t.Run("profview", func(t *testing.T) {
		out := runTool(t, dir, false, "profview", "-in", dump)
		wantLine(t, out, "imbalance max/mean executed:")
	})
	t.Run("whatif-rejects-profile", func(t *testing.T) {
		out := runTool(t, dir, true, "whatif", "-in", dump)
		wantLine(t, out, "expects a job trace")
	})
	t.Run("benchall", func(t *testing.T) {
		out := runTool(t, dir, false, "benchall", "-exp", "fig3", "-scale", "test", "-workers", "2", "-reps", "1")
		wantLine(t, out, "-- fig3 done")
	})
	t.Run("posp", func(t *testing.T) {
		out := runTool(t, dir, false, "posp", "-k", "10", "-batch", "64", "-workers", "2")
		proofs := 0
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "challenge ") {
				proofs++
				if !strings.HasSuffix(line, " ok") {
					t.Errorf("proof line does not end ok: %s", line)
				}
			}
		}
		if proofs == 0 {
			t.Fatalf("no proof lines:\n%s", out)
		}
	})
	t.Run("whatif", func(t *testing.T) {
		out := runTool(t, dir, false, "whatif", "-scenario", "steady", "-workers", "2", "-reps", "1", "-speed", "8")
		wantLine(t, out, "recommendation:")
	})
	t.Run("loadgen", func(t *testing.T) {
		out := runTool(t, dir, false, "loadgen", "-workers", "2", "-submitters", "2", "-jobs", "4")
		wantLine(t, out, "8/8 jobs admitted")
	})
	for _, bad := range [][]string{
		{"-submitters", "-1"},
		{"-zones", "0"},
		{"-jobs", "-3"},
	} {
		t.Run("loadgen-rejects"+bad[0]+"="+bad[1], func(t *testing.T) {
			out := runTool(t, dir, true, "loadgen", append([]string{"-workers", "2"}, bad...)...)
			wantLine(t, out, bad[0]+" "+bad[1]+" must be")
		})
	}
}

// TestToolList pins the tool inventory: cmdMains plus repolint (which is
// a vet tool, not flag-driven) are exactly the directories under cmd/,
// and cmd/README.md has one "## <name>" section per tool and none for a
// tool that does not exist.
func TestToolList(t *testing.T) {
	entries, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, e.Name())
		}
	}
	want := append([]string{"repolint"}, cmdMains...)
	sort.Strings(want)
	if fmt.Sprint(dirs) != fmt.Sprint(want) {
		t.Errorf("cmd/ holds %v; cmdMains plus repolint are %v", dirs, want)
	}

	readme, err := os.ReadFile(filepath.Join("cmd", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	var sections []string
	for _, line := range strings.Split(string(readme), "\n") {
		if rest, ok := strings.CutPrefix(line, "## "); ok {
			sections = append(sections, strings.Fields(rest)[0])
		}
	}
	sort.Strings(sections)
	if fmt.Sprint(sections) != fmt.Sprint(dirs) {
		t.Errorf("cmd/README.md has sections for %v; cmd/ holds %v", sections, dirs)
	}
}
