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
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/xomp"
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
	"loadgen":   {"scenario", "record", "emit", "admit", "shards", "mode", "addr", "size"},
	"jobserved": {"addr", "runtime", "workers", "shards", "backlog", "admit", "scale", "window", "report"},
	"whatif":    {"in", "scenario", "speed", "reps"},
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

// toolRun is one invocation of a built tool. TestToolsRun runs the table
// in order (a later run may read what an earlier one wrote), and
// TestEveryKnobRuns counts every flag in it as run for that tool. "{tmp}"
// in an argument is the test's temporary directory.
type toolRun struct {
	name     string // subtest name
	tool     string
	args     []string
	wantFail bool                                // the run must exit non-zero
	want     string                              // a line the output must contain
	check    func(t *testing.T, out, tmp string) // more checks, if any
}

var toolRuns = []toolRun{
	{name: "botsrun", tool: "botsrun",
		args: []string{"-app", "fib", "-runtime", "xgomptb+naws", "-scale", "test", "-workers", "2", "-profile", "-profout", "{tmp}/fib.json"},
		want: "verify: ok"},
	{name: "profview", tool: "profview",
		args: []string{"-in", "{tmp}/fib.json", "-trace", "{tmp}/fib.trace.json"},
		want: "imbalance max/mean executed:"},
	{name: "whatif-rejects-profile", tool: "whatif", wantFail: true,
		args: []string{"-in", "{tmp}/fib.json"},
		want: "expects a job trace"},
	{name: "benchall", tool: "benchall",
		args: []string{"-exp", "fig3", "-scale", "test", "-workers", "2", "-reps", "1"},
		want: "-- fig3 done"},
	{name: "posp", tool: "posp",
		args:  []string{"-k", "10", "-batch", "64", "-runtime", "gomp", "-workers", "2"},
		check: proofsOK},
	{name: "whatif", tool: "whatif",
		args: []string{"-scenario", "steady", "-workers", "2", "-reps", "1", "-speed", "8"},
		want: "recommendation:"},
	{name: "loadgen", tool: "loadgen",
		args: []string{"-runtime", "xgomptb+naws", "-workers", "2", "-zones", "2", "-backlog", "8", "-admit", "reject", "-scale", "test",
			"-submitters", "2", "-jobs", "4", "-batch", "2", "-tenants", "2", "-record", "{tmp}/run.jsonl"},
		want: "8/8 jobs admitted"},
	{name: "loadgen-sharded", tool: "loadgen",
		args: []string{"-workers", "2", "-shards", "2", "-submitters", "2", "-jobs", "4"},
		want: "8/8 jobs admitted"},
	{name: "whatif-replays-record", tool: "whatif",
		args: []string{"-in", "{tmp}/run.jsonl", "-workers", "2", "-reps", "1"},
		want: "recommendation:"},
	{name: "loadgen-emits-golden", tool: "loadgen",
		args: []string{"-scenario", "steady", "-emit", "{tmp}/steady.jsonl"},
		want: "wrote steady", check: sameAsGolden("steady.jsonl")},
	{name: "loadgen-rejects-submitters=-1", tool: "loadgen", wantFail: true,
		args: []string{"-workers", "2", "-submitters", "-1"},
		want: "-submitters -1 must be"},
	{name: "loadgen-rejects-zones=0", tool: "loadgen", wantFail: true,
		args: []string{"-workers", "2", "-zones", "0"},
		want: "-zones 0 must be"},
	{name: "loadgen-rejects-jobs=-3", tool: "loadgen", wantFail: true,
		args: []string{"-workers", "2", "-jobs", "-3"},
		want: "-jobs -3 must be"},
}

// proofsOK checks posp's output: at least one proof line, each ending ok.
func proofsOK(t *testing.T, out, _ string) {
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
}

// sameAsGolden checks that a run wrote name into the temporary directory
// byte for byte as the golden corpus under testdata/scenarios holds it.
func sameAsGolden(name string) func(t *testing.T, out, tmp string) {
	return func(t *testing.T, _, tmp string) {
		got, err := os.ReadFile(filepath.Join(tmp, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "scenarios", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("emitted %s differs from testdata/scenarios/%s", name, name)
		}
	}
}

// TestToolsRun runs every tool but jobserved and repolint at test scale,
// once per toolRuns entry, each asserting a line of its output.
func TestToolsRun(t *testing.T) {
	dir := buildMains(t)
	tmp := t.TempDir()
	for _, r := range toolRuns {
		r := r
		t.Run(r.name, func(t *testing.T) {
			args := make([]string, len(r.args))
			for i, a := range r.args {
				args[i] = strings.ReplaceAll(a, "{tmp}", tmp)
			}
			out := runTool(t, dir, r.wantFail, r.tool, args...)
			if !strings.Contains(out, r.want) {
				t.Fatalf("output lacks %q:\n%s", r.want, out)
			}
			if r.check != nil {
				r.check(t, out, tmp)
			}
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

// TestEveryKnobRuns is the knob ratchet: every flag of every main (read
// from its -help) and every runtime preset must be run by something, or
// be listed in testdata/unrun_knobs.txt with a reason. A flag runs when
// its tool receives it from a toolRuns entry, a script under scripts/, a
// step of .github/workflows/ci.yml, or a svcbench workload's server
// arguments; a preset runs when a test builds a team or pool from every
// name of PresetNames(), or when one of those invocations or workloads
// names it. A listed knob that now runs or no longer exists fails too,
// so the list only shrinks.
func TestEveryKnobRuns(t *testing.T) {
	dir := buildMains(t)
	declared := make(map[string]bool)
	for _, tool := range append([]string{"repolint"}, cmdMains...) {
		for _, f := range helpFlags(t, dir, tool) {
			declared[tool+" -"+f] = true
		}
	}
	for _, p := range xomp.PresetNames() {
		declared["preset "+p] = true
	}

	args, presets := svcbenchServer(t)
	invs := append(knobInvocations(t), invocation{"jobserved", args, "a svcbench workload"})
	run := make(map[string]string)
	for _, inv := range invs {
		for i, a := range inv.args {
			name, ok := flagName(a)
			if !ok {
				continue
			}
			run[inv.tool+" -"+name] = inv.where
			if name != "runtime" || i+1 == len(inv.args) {
				continue
			}
			if _, isFlag := flagName(inv.args[i+1]); !isFlag {
				run["preset "+inv.args[i+1]] = inv.where
			}
		}
	}
	if path := presetLoopTest(t); path != "" {
		for _, p := range xomp.PresetNames() {
			run["preset "+p] = path
		}
	}
	for _, p := range presets {
		run["preset "+p] = "a svcbench workload"
	}

	listed, err := readUnrunKnobs(filepath.Join("testdata", "unrun_knobs.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range checkKnobs(declared, run, listed) {
		t.Error(p)
	}
}

// TestKnobRatchet checks the ratchet's parts on fixed inputs: a shell
// line's invocations, and each way the list can disagree with the scan.
func TestKnobRatchet(t *testing.T) {
	tools := map[string]bool{"loadgen": true, "jobserved": true}
	invs := shellInvocations(`go build -o "$dir" ./cmd/jobserved ./cmd/loadgen
# "$dir/jobserved" -commented
out=$("$dir/loadgen" -mode client -batch=16 -jobs -3 >/dev/null 2>&1) && "$dir/jobserved" \
	-addr "$a" &`, "fixture", tools)
	var got []string
	for _, inv := range invs {
		got = append(got, strings.Join(append([]string{inv.tool}, inv.args...), " "))
	}
	want := []string{"jobserved", "loadgen", "loadgen -mode client -batch=16 -jobs -3 >/dev/null 2>", "jobserved -addr $a"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("invocations = %q, want %q", got, want)
	}
	var flags []string
	for _, a := range invs[2].args {
		if name, ok := flagName(a); ok {
			flags = append(flags, name)
		}
	}
	if fmt.Sprint(flags) != "[mode batch jobs]" {
		t.Errorf("flags of %q = %v, want [mode batch jobs]", invs[2].args, flags)
	}

	declared := map[string]bool{"gen -jobs": true, "gen -rate": true}
	run := map[string]string{"gen -jobs": "fixture"}
	for _, c := range []struct {
		name   string
		listed map[string]string
		want   string
	}{
		{"an unrun flag is reported", nil,
			"gen -rate: nothing runs it"},
		{"listed with a reason, it passes", map[string]string{"gen -rate": "fixture"},
			""},
		{"a listed knob that runs is stale", map[string]string{"gen -rate": "fixture", "gen -jobs": "fixture"},
			"gen -jobs: listed, but fixture runs it"},
		{"a listed knob that is gone is reported", map[string]string{"gen -rate": "fixture", "gen -v": "fixture"},
			"gen -v: listed, but no main declares it"},
		{"a listed knob needs a reason", map[string]string{"gen -rate": ""},
			"gen -rate: listed without a reason"},
	} {
		var got []string
		for _, p := range checkKnobs(declared, run, c.listed) {
			p, _, _ = strings.Cut(p, ";")
			got = append(got, p)
		}
		if strings.Join(got, "\n") != c.want {
			t.Errorf("%s: got %q, want %q", c.name, got, c.want)
		}
	}
}

// checkKnobs compares the declared knobs ("tool -flag" or "preset name")
// with what runs them and with the unrun list.
func checkKnobs(declared map[string]bool, run, listed map[string]string) []string {
	var problems []string
	for k := range declared {
		if _, ok := run[k]; !ok {
			if _, ok := listed[k]; !ok {
				problems = append(problems, k+": nothing runs it; run it from a toolRuns entry, a script, CI or a svcbench workload, delete it, or list it in testdata/unrun_knobs.txt with a reason")
			}
		}
	}
	for k, reason := range listed {
		switch where, runs := run[k]; {
		case !declared[k]:
			problems = append(problems, k+": listed, but no main declares it; take it off the list")
		case runs:
			problems = append(problems, k+": listed, but "+where+" runs it; take it off the list")
		case reason == "":
			problems = append(problems, k+": listed without a reason")
		}
	}
	for k, where := range run {
		if strings.Contains(k, " -") && !declared[k] {
			problems = append(problems, k+": "+where+" passes it, but the tool does not declare it")
		}
	}
	sort.Strings(problems)
	return problems
}

// readUnrunKnobs parses the list: one "tool -flag  # reason" or
// "preset name  # reason" a line, blank lines and comment lines skipped.
func readUnrunKnobs(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	listed := make(map[string]string)
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		knob, reason, _ := strings.Cut(line, "#")
		f := strings.Fields(knob)
		if len(f) != 2 {
			return nil, fmt.Errorf("%s:%d: want \"tool -flag  # reason\", got %q", path, i+1, line)
		}
		listed[f[0]+" "+f[1]] = strings.TrimSpace(reason)
	}
	return listed, nil
}

// helpFlags returns the flag names a built main prints on -help: the
// flag package's defaults put each on a line of its own, "  -name ...".
func helpFlags(t *testing.T, dir, tool string) []string {
	t.Helper()
	out, err := exec.Command(filepath.Join(dir, tool), "-help").CombinedOutput()
	if err != nil {
		t.Fatalf("%s -help: %v\n%s", tool, err, out)
	}
	var flags []string
	for _, line := range strings.Split(string(out), "\n") {
		if rest, ok := strings.CutPrefix(line, "  -"); ok {
			flags = append(flags, strings.Fields(rest)[0])
		}
	}
	return flags
}

// flagName reports whether a command-line word is a flag, and its name:
// "-name", "--name" or "-name=value"; "-3" is a value, not a flag.
func flagName(w string) (string, bool) {
	name, ok := strings.CutPrefix(w, "-")
	name, _, _ = strings.Cut(strings.TrimPrefix(name, "-"), "=")
	if !ok || name == "" {
		return "", false
	}
	c := name[0]
	return name, 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z'
}

// invocation is one command line that runs a main: the tool, the words
// after it, and where the line is.
type invocation struct {
	tool  string
	args  []string
	where string
}

// knobInvocations gathers the invocations of the toolRuns table, the
// scripts and the CI workflow.
func knobInvocations(t *testing.T) []invocation {
	t.Helper()
	tools := map[string]bool{"repolint": true}
	for _, m := range cmdMains {
		tools[m] = true
	}
	var invs []invocation
	for _, r := range toolRuns {
		invs = append(invs, invocation{r.tool, r.args, "TestToolsRun/" + r.name})
	}
	scripts, err := filepath.Glob(filepath.Join("scripts", "*.sh"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range append(scripts, filepath.Join(".github", "workflows", "ci.yml")) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		invs = append(invs, shellInvocations(string(data), path, tools)...)
	}
	return invs
}

// shellInvocations finds the invocations of tools in shell text (a
// script, or a workflow's run steps). A word whose last path element is
// a tool and that holds a slash ("$dir/loadgen", ./cmd/loadgen) starts an
// invocation, which runs to the end of its command: ; | & ( ) or a line
// end without a continuing backslash. Quotes are dropped and comment
// lines skipped.
func shellInvocations(text, where string, tools map[string]bool) []invocation {
	var invs []invocation
	text = strings.ReplaceAll(text, "\\\n", " ")
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		line = strings.NewReplacer(`"`, "", `'`, "").Replace(line)
		cmds := strings.FieldsFunc(line, func(r rune) bool { return strings.ContainsRune(";|&()`", r) })
		for _, cmd := range cmds {
			var inv *invocation
			for _, w := range strings.Fields(cmd) {
				if i := strings.LastIndexByte(w, '/'); i >= 0 && tools[w[i+1:]] {
					invs = append(invs, invocation{tool: w[i+1:], where: where})
					inv = &invs[len(invs)-1]
					continue
				}
				if inv != nil {
					inv.args = append(inv.args, w)
				}
			}
		}
	}
	return invs
}

// svcbenchServer reads benchmarks/svcbench/workload.go without building
// it: the string literals of serverSpec.args (the flags every workload
// passes jobserved) and the preset each workload names.
func svcbenchServer(t *testing.T) (args, presets []string) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filepath.Join("benchmarks", "svcbench", "workload.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Name.Name == "args" && n.Recv != nil {
				ast.Inspect(n.Body, func(n ast.Node) bool {
					if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
						if s, err := strconv.Unquote(lit.Value); err == nil {
							args = append(args, s)
						}
					}
					return true
				})
			}
		case *ast.KeyValueExpr:
			key, ok := n.Key.(*ast.Ident)
			lit, isLit := n.Value.(*ast.BasicLit)
			if ok && isLit && key.Name == "preset" {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					presets = append(presets, s)
				}
			}
		}
		return true
	})
	if len(args) == 0 || len(presets) == 0 {
		t.Fatal("benchmarks/svcbench/workload.go: found no serverSpec.args flags or workload presets")
	}
	return args, presets
}

// presetLoopTest returns a test file that ranges over PresetNames() and
// builds a configuration from each name (a Preset call on the loop
// variable), so that every preset runs; "" if there is none.
func presetLoopTest(t *testing.T) string {
	t.Helper()
	fset := token.NewFileSet()
	found := ""
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || found != "" {
			return err
		}
		if d.IsDir() && path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok || !isCallTo(rs.X, "PresetNames") {
				return found == ""
			}
			v, ok := rs.Value.(*ast.Ident)
			ast.Inspect(rs.Body, func(n ast.Node) bool {
				call, isCall := n.(*ast.CallExpr)
				if ok && isCall && isCallTo(call, "Preset") && len(call.Args) > 0 {
					if arg, isIdent := call.Args[0].(*ast.Ident); isIdent && arg.Name == v.Name {
						found = path
					}
				}
				return found == ""
			})
			return found == ""
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return found
}

// isCallTo reports whether e calls a function or method named name.
func isCallTo(e ast.Expr, name string) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name == name
	case *ast.SelectorExpr:
		return fn.Sel.Name == name
	}
	return false
}
