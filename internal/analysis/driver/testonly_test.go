package driver

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestNoTestOnlyAPI is the dead-API ratchet: every package-level name
// declared under internal/ or cmd/ must have a use in some non-test file
// of the module, or be listed in testdata/testonly_api.txt with a reason.
// A listed name that gained a caller or went away fails too, so the list
// only shrinks.
func TestNoTestOnlyAPI(t *testing.T) {
	testOnly, declared, err := scanTestOnly(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	listed, err := readTestOnlyList(filepath.Join("testdata", "testonly_api.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range checkTestOnly(testOnly, declared, listed) {
		t.Error(p)
	}
}

// TestTestOnlyRatchet runs the scan over the fixture module in
// testdata/testonly and checks each way the list can disagree with it.
func TestTestOnlyRatchet(t *testing.T) {
	testOnly, declared, err := scanTestOnly(filepath.Join("testdata", "testonly"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(testOnly, " "), "internal/lib.Helper"; got != want {
		t.Fatalf("test-only names = %q, want %q", got, want)
	}
	cases := []struct {
		name   string
		listed map[string]string
		want   []string
	}{
		{"a helper only a test calls is reported",
			nil,
			[]string{"internal/lib.Helper: only tests use it"}},
		{"listed with a reason, it passes",
			map[string]string{"internal/lib.Helper": "fixture"},
			nil},
		{"a listed name with a non-test caller is stale",
			map[string]string{"internal/lib.Helper": "fixture", "internal/lib.Used": "fixture"},
			[]string{"internal/lib.Used: listed, but non-test code uses it"}},
		{"a listed name that is gone is reported",
			map[string]string{"internal/lib.Helper": "fixture", "internal/lib.Gone": "fixture"},
			[]string{"internal/lib.Gone: listed, but no longer declared"}},
		{"a listed name needs a reason",
			map[string]string{"internal/lib.Helper": ""},
			[]string{"internal/lib.Helper: listed without a reason"}},
	}
	for _, c := range cases {
		got := checkTestOnly(testOnly, declared, c.listed)
		for i := range got {
			got[i], _, _ = strings.Cut(got[i], ";")
		}
		if strings.Join(got, "\n") != strings.Join(c.want, "\n") {
			t.Errorf("%s: got %q, want %q", c.name, got, c.want)
		}
	}
	// The fixture's String method is reached only through fmt, and its
	// Len/Less/Swap only through sort.Interface.
	for _, name := range []string{"internal/lib.Point.String", "internal/lib.byX.Len", "internal/lib.Used"} {
		if !declared[name] {
			t.Errorf("%s not declared by the scan", name)
		}
	}
}

// checkTestOnly compares a scan with the allow-list and returns one
// problem per disagreement, sorted.
func checkTestOnly(testOnly []string, declared map[string]bool, listed map[string]string) []string {
	var problems []string
	found := make(map[string]bool, len(testOnly))
	for _, name := range testOnly {
		found[name] = true
		reason, ok := listed[name]
		switch {
		case !ok:
			problems = append(problems, name+": only tests use it; delete it, give it a caller, or list it in testdata/testonly_api.txt with a reason")
		case reason == "":
			problems = append(problems, name+": listed without a reason")
		}
	}
	for name := range listed {
		switch {
		case !declared[name]:
			problems = append(problems, name+": listed, but no longer declared; remove it from the list")
		case !found[name]:
			problems = append(problems, name+": listed, but non-test code uses it; remove it from the list")
		}
	}
	sort.Strings(problems)
	return problems
}

// readTestOnlyList parses the allow-list: one `name  # reason` a line.
func readTestOnlyList(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	listed := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, "#")
		listed[strings.TrimSpace(name)] = strings.TrimSpace(reason)
	}
	return listed, sc.Err()
}

// scanTestOnly type-checks every non-test package of the module rooted at
// dir, in dependency order against one shared importer so that each object
// has one identity, and returns the package-level names declared under
// internal/ or cmd/ that no non-test file uses, plus every such name it
// declared. Names are the module-relative package path, then the receiver
// type for a method, then the name: "internal/stats.Histogram.Mean".
//
// A use inside the name's own declaration (a recursive call, a method's
// receiver) does not count. A method whose receiver type implements an
// interface that non-test code uses, and that has a method of the same
// name, counts as used; error and fmt.Stringer count as used.
func scanTestOnly(dir string) (testOnly []string, declared map[string]bool, err error) {
	pkgs, err := listExport(dir, []string{"./..."}, false)
	if err != nil {
		return nil, nil, err
	}
	exports := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", exportLookup(exports, nil))
	checked := make(map[string]*types.Package)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})

	s := &usage{
		used:  make(map[types.Object]bool),
		seen:  make(map[types.Type]bool),
		named: make(map[string]types.Object),
	}
	s.addIface(types.Universe.Lookup("error").Type())
	fmtPkg, err := imp.Import("fmt")
	if err != nil {
		return nil, nil, err
	}
	s.addIface(fmtPkg.Scope().Lookup("Stringer").Type())

	for _, p := range pkgs {
		if p.Standard {
			continue
		}
		if p.Error != nil {
			return nil, nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				return nil, nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types: make(map[ast.Expr]types.TypeAndValue),
			Defs:  make(map[*ast.Ident]types.Object),
			Uses:  make(map[*ast.Ident]types.Object),
		}
		conf := &types.Config{Importer: imp}
		if p.Module.GoVersion != "" {
			conf.GoVersion = "go" + p.Module.GoVersion
		}
		tpkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: typecheck: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = tpkg
		rel := strings.TrimPrefix(p.ImportPath, p.Module.Path+"/")
		scanned := strings.HasPrefix(rel, "internal/") || strings.HasPrefix(rel, "cmd/")
		for _, f := range files {
			for _, d := range f.Decls {
				own := s.scanDecl(d, info)
				if !scanned {
					continue
				}
				for obj := range own {
					if obj.Pkg() == tpkg && obj.Name() != "_" {
						s.named[rel+"."+qualName(obj)] = obj
					}
				}
			}
		}
	}

	declared = make(map[string]bool, len(s.named))
	for name, obj := range s.named {
		declared[name] = true
		if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() == nil && (fn.Name() == "init" || fn.Name() == "main") {
			continue
		}
		if !s.used[obj] && !s.reachedByIface(obj) {
			testOnly = append(testOnly, name)
		}
	}
	sort.Strings(testOnly)
	return testOnly, declared, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// usage accumulates, over every non-test file, the objects used and the
// interfaces in use.
type usage struct {
	used   map[types.Object]bool
	ifaces []*types.Interface
	seen   map[types.Type]bool
	named  map[string]types.Object // scanned declarations by name
}

// scanDecl records the uses in one top-level declaration and returns the
// objects it declares (with a method's receiver type), whose uses inside
// the declaration do not count.
func (s *usage) scanDecl(d ast.Decl, info *types.Info) map[types.Object]bool {
	own := make(map[types.Object]bool)
	switch d := d.(type) {
	case *ast.FuncDecl:
		own[info.Defs[d.Name]] = true
		if d.Recv != nil {
			if recv := recvNamed(info.Defs[d.Name]); recv != nil {
				own[recv.Obj()] = true
			}
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch spec := spec.(type) {
			case *ast.TypeSpec:
				own[info.Defs[spec.Name]] = true
			case *ast.ValueSpec:
				for _, id := range spec.Names {
					own[info.Defs[id]] = true
				}
			}
		}
	}
	delete(own, nil)
	ast.Inspect(d, func(n ast.Node) bool {
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if id, ok := e.(*ast.Ident); ok {
			if obj := origin(info.Uses[id]); obj != nil && !own[obj] {
				s.used[obj] = true
			}
		}
		if tv, ok := info.Types[e]; ok {
			s.walkType(tv.Type, own)
		}
		return true
	})
	return own
}

// walkType marks the named types an expression's type is built from as
// used, and collects the interfaces among them, looking through pointers,
// containers and signatures but not into struct fields.
func (s *usage) walkType(t types.Type, own map[types.Object]bool) {
	switch t := t.(type) {
	case *types.Named:
		if obj := t.Origin().Obj(); !own[obj] {
			s.used[obj] = true
		}
		s.addIface(t)
		for i := 0; i < t.TypeArgs().Len(); i++ {
			s.walkType(t.TypeArgs().At(i), own)
		}
	case *types.Alias:
		s.walkType(types.Unalias(t), own)
	case *types.Interface:
		s.addIface(t)
	case *types.Pointer:
		s.walkType(t.Elem(), own)
	case *types.Slice:
		s.walkType(t.Elem(), own)
	case *types.Array:
		s.walkType(t.Elem(), own)
	case *types.Chan:
		s.walkType(t.Elem(), own)
	case *types.Map:
		s.walkType(t.Key(), own)
		s.walkType(t.Elem(), own)
	case *types.Signature:
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tup.Len(); i++ {
				s.walkType(tup.At(i).Type(), own)
			}
		}
	}
}

// addIface collects t's interface, once per type.
func (s *usage) addIface(t types.Type) {
	if s.seen[t] {
		return
	}
	s.seen[t] = true
	if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
		s.ifaces = append(s.ifaces, it)
	}
}

// reachedByIface reports whether obj is a method that a used interface
// can call: the interface has a method of its name and its receiver type
// implements the interface.
func (s *usage) reachedByIface(obj types.Object) bool {
	recv := recvNamed(obj)
	if recv == nil {
		return false
	}
	for _, it := range s.ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() != obj.Name() {
				continue
			}
			if recv.TypeParams().Len() > 0 || types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				return true
			}
		}
	}
	return false
}

// recvNamed returns the receiver's named type when obj is a method.
func recvNamed(obj types.Object) *types.Named {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// qualName is obj's name, prefixed by its receiver type for a method.
func qualName(obj types.Object) string {
	if recv := recvNamed(obj); recv != nil {
		return recv.Obj().Name() + "." + obj.Name()
	}
	return obj.Name()
}

// origin maps an instantiated generic function or method to its
// declaration.
func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}
