// Smoke tests for the repository's main packages: every binary under cmd/
// and examples/ must build, and the flag-driven tools must print usage and
// exit 0 on -help. Without these, the mains have no test coverage at all
// and can rot silently.
package repro_test

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// cmdMains are the flag-driven tools; -help must print a usage message and
// exit 0 (the flag package's ErrHelp convention).
var cmdMains = []string{
	"benchall", "botsrun", "dlbsweep", "jobserved", "loadgen", "posp", "profview", "whatif",
}

// cmdRequiredFlags pins load-bearing flags into each tool's -help output:
// a flag renamed or dropped without its docs is caught here, not by a
// user's broken script. Keyed by tool name; every entry must appear as a
// "-name" flag in the usage text.
var cmdRequiredFlags = map[string][]string{
	"loadgen": {"scenario", "trace", "record", "emit", "seed", "speed", "admit", "priority-mix", "elastic", "shards",
		"mode", "addr", "listen", "rate", "size", "fleet", "fleet-size"},
	"jobserved": {"addr", "workers", "shards", "backlog", "admit", "policy", "elastic", "budget", "scale", "window", "report"},
	"whatif":    {"in", "scenario", "seed", "shards", "speed", "reps"},
	"botsrun":   {"app", "profile"},
}

// exampleMains only need to build: they are demos with fixed inputs, some
// of them long-running, so the smoke test stops at the compile boundary.
var exampleMains = []string{
	"adaptive", "autotune", "elasticpool", "imbalance", "mergesort", "posp-farm", "quickstart", "shardedpool",
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
		cmd := exec.Command(goTool, "build", "-o", dir, "./cmd/...", "./examples/...")
		out, err := cmd.CombinedOutput()
		if err != nil {
			buildOnce.err = fmt.Errorf("go build ./cmd/... ./examples/...: %v\n%s", err, out)
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
	for _, name := range append(append([]string{}, cmdMains...), exampleMains...) {
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
