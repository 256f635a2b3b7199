package driver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

// listPkg is the subset of `go list -json` output the loader needs.
type listPkg struct {
	ImportPath  string
	Dir         string
	Export      string
	GoFiles     []string
	TestGoFiles []string
	ForTest     string
	DepOnly     bool
	Standard    bool
	ImportMap   map[string]string
	Module      *struct {
		Path      string
		GoVersion string
	}
	Error *struct {
		Err string
	}
}

// listExport shells out to `go list -export -json -deps patterns...`
// in dir (the current directory when empty) and decodes the package
// stream. -export compiles into the build cache, so export data is
// available offline. With tests set, -test adds
// each package's test variants ("p [p.test]" with the _test.go files
// compiled in, "p_test [p.test]" for external tests) — the units `go
// vet` hands a vettool.
func listExport(dir string, patterns []string, tests bool) ([]*listPkg, error) {
	args := []string{"list", "-e", "-export", "-json", "-deps"}
	if tests {
		args = append(args, "-test")
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	var pkgs []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportLookup builds the gc importer lookup over the listed packages'
// export files, honouring per-import vendor remapping.
func exportLookup(exports map[string]string, importMap map[string]string) func(string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		canonical := path
		if m, ok := importMap[path]; ok {
			canonical = m
		}
		file, ok := exports[canonical]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %q", canonical)
		}
		return os.Open(file)
	}
}

// vetUnit reports whether `go vet` would analyze listed package p as a
// unit of its own, so both drivers see one file set: a package with
// in-package tests is analyzed once, as its test variant (which
// recompiles the plain files with the _test.go files), never also
// plain; the generated "p.test" main is not source at all.
func vetUnit(p *listPkg) bool {
	if strings.HasSuffix(p.ImportPath, ".test") {
		return false
	}
	return p.ForTest != "" || len(p.TestGoFiles) == 0
}

// LoadAndRun loads the pattern-matched packages standalone-style, runs
// analyzers over each, prints findings to out, and returns (findings,
// suppressed).
func LoadAndRun(patterns []string, analyzers []*analysis.Analyzer, out io.Writer) (int, int, error) {
	pkgs, err := listExport("", patterns, true)
	if err != nil {
		return 0, 0, err
	}
	exports := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}

	total, totalSup := 0, 0
	sizes := types.SizesFor("gc", build.Default.GOARCH)
	for _, p := range pkgs {
		if p.DepOnly || p.Standard || len(p.GoFiles) == 0 || !vetUnit(p) {
			continue
		}
		if p.Error != nil {
			return total, totalSup, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		fset := token.NewFileSet()
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return total, totalSup, fmt.Errorf("%s: %v", p.ImportPath, err)
			}
			files = append(files, f)
		}
		conf := &types.Config{
			Importer: importer.ForCompiler(fset, "gc", exportLookup(exports, p.ImportMap)),
			Sizes:    sizes,
			Error:    func(error) {}, // collect everything; fail on the first below
		}
		if p.Module != nil && p.Module.GoVersion != "" {
			conf.GoVersion = "go" + p.Module.GoVersion
		}
		info := NewInfo()
		// A test variant type-checks under its plain path, as under vet:
		// the analyzers select packages by import-path suffix.
		path, _, _ := strings.Cut(p.ImportPath, " [")
		tpkg, err := conf.Check(path, fset, files, info)
		if err != nil {
			return total, totalSup, fmt.Errorf("%s: typecheck: %v", p.ImportPath, err)
		}
		diags, sup, err := Analyze(fset, files, tpkg, info, sizes, analyzers)
		if err != nil {
			return total, totalSup, fmt.Errorf("%s: %v", p.ImportPath, err)
		}
		Print(out, diags)
		total += len(diags)
		totalSup += sup
	}
	return total, totalSup, nil
}

// ExportImporter returns a types.Importer backed by build-cache export
// data for patterns (used by the analysistest harness to typecheck
// fixtures that import the standard library).
func ExportImporter(fset *token.FileSet, patterns ...string) (types.Importer, error) {
	pkgs, err := listExport("", patterns, false)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return importer.ForCompiler(fset, "gc", exportLookup(exports, nil)), nil
}
