package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// NoCopy flags by-value copies of the hot-path's move-only types.
//
// go vet's copylocks catches copies of types that embed a sync.Mutex or
// a sync/atomic typed field (those carry an internal noCopy marker).
// But several hot-path types are just as copy-hostile without carrying
// either: the wire codec's Encoder/Decoder (copying duplicates a
// recycled buffer — two owners will both Put it), and future lock-free
// structures whose cursors are plain integers. A
// copy of intake.Ring is caught by vet only *after* the atomics make it
// in; this analyzer pins the invariant at the type level, not at the
// field level.
//
// A type is move-only if its declaration doc carries a
// "repolint:nocopy" marker, or if it is in the built-in registry
// (NoCopyTypes) — the registry covers copies made from *importing*
// packages, where the marker comment is not in the analyzed syntax.
//
// Flagged copy shapes: value receivers, by-value parameters and
// results, assignments and var initializers whose right side reads an
// existing value (x := *p, y = x), range-over-slice value variables,
// call arguments passed by value (including into interface
// parameters), and composite-literal elements copying an existing
// value. Constructing a fresh value (T{…}, new(T), var x T) is fine.
var NoCopy = &Analyzer{
	Name: "nocopy",
	Doc:  "move-only hot-path types (repolint:nocopy) must not be copied by value",
	Run:  runNoCopy,
}

// noCopyMarker in a type's doc comment marks it move-only.
const noCopyMarker = "repolint:nocopy"

// NoCopyTypes is the built-in move-only registry: package-path suffix →
// type names. The marker comment on the declaration is the source of
// truth; this mirror exists so copies in *other* packages are caught
// too (cross-package analysis sees only export data, not comments).
var NoCopyTypes = map[string][]string{
	"internal/intake": {"Ring", "Gate", "Bell"},
	"internal/wire":   {"Encoder", "Decoder"},
}

func runNoCopy(pass *Pass) error {
	marked := markedNoCopy(pass)

	isNoCopy := func(t types.Type) (string, bool) {
		n, ok := t.(*types.Named)
		if !ok {
			return "", false
		}
		obj := origin(n)
		if obj.Pkg() == nil {
			return "", false
		}
		name := obj.Name()
		if obj.Pkg() == pass.Pkg && marked[name] {
			return name, true
		}
		for suffix, names := range NoCopyTypes {
			if !pathIn(obj.Pkg().Path(), []string{suffix}) {
				continue
			}
			for _, want := range names {
				if name == want {
					return name, true
				}
			}
		}
		return "", false
	}

	exprType := func(e ast.Expr) types.Type {
		tv, ok := pass.TypesInfo.Types[e]
		if !ok {
			return nil
		}
		return tv.Type
	}

	// reportCopy flags e when it reads an existing value of a move-only
	// type in a position that copies it.
	reportCopy := func(e ast.Expr, context string) {
		if !isCopySource(e) {
			return
		}
		t := exprType(e)
		if t == nil {
			return
		}
		if name, bad := isNoCopy(t); bad {
			pass.Reportf(e.Pos(), "%s of move-only type %s copies it by value; pass a pointer", context, name)
		}
	}

	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				if x.Recv != nil && len(x.Recv.List) == 1 {
					if t := exprType(x.Recv.List[0].Type); t != nil {
						if name, bad := isNoCopy(t); bad {
							pass.Reportf(x.Recv.List[0].Type.Pos(), "method %s uses a value receiver of move-only type %s; use a pointer receiver", x.Name.Name, name)
						}
					}
				}
				checkFieldList(pass, x.Type.Params, isNoCopy, "parameter")
				checkFieldList(pass, x.Type.Results, isNoCopy, "result")
			case *ast.AssignStmt:
				for _, rhs := range x.Rhs {
					reportCopy(rhs, "assignment")
				}
			case *ast.ValueSpec:
				for _, v := range x.Values {
					reportCopy(v, "initializer")
				}
			case *ast.RangeStmt:
				if x.Value != nil {
					t := exprType(x.Value)
					if t == nil {
						// A := range defines the value var; its type
						// lives in Defs, not Types.
						if id, ok := x.Value.(*ast.Ident); ok {
							if obj := pass.TypesInfo.Defs[id]; obj != nil {
								t = obj.Type()
							}
						}
					}
					if t != nil {
						if name, bad := isNoCopy(t); bad {
							pass.Reportf(x.Value.Pos(), "range value copies move-only type %s per element; range by index", name)
						}
					}
				}
			case *ast.CallExpr:
				checkCallArgs(pass, x, isNoCopy)
			case *ast.CompositeLit:
				for _, el := range x.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						el = kv.Value
					}
					reportCopy(el, "composite literal element")
				}
			}
			return true
		})
	}
	return nil
}

// checkFieldList flags by-value parameters/results of move-only types.
func checkFieldList(pass *Pass, fl *ast.FieldList, isNoCopy func(types.Type) (string, bool), kind string) {
	if fl == nil {
		return
	}
	for _, f := range fl.List {
		tv, ok := pass.TypesInfo.Types[f.Type]
		if !ok {
			continue
		}
		if name, bad := isNoCopy(tv.Type); bad {
			pass.Reportf(f.Type.Pos(), "%s of move-only type %s is passed by value; use *%s", kind, name, name)
		}
	}
}

// checkCallArgs flags arguments that copy a move-only value into a
// by-value (or interface) parameter.
func checkCallArgs(pass *Pass, call *ast.CallExpr, isNoCopy func(types.Type) (string, bool)) {
	for _, arg := range call.Args {
		if !isCopySource(arg) {
			continue
		}
		tv, ok := pass.TypesInfo.Types[arg]
		if !ok || tv.Type == nil {
			continue
		}
		if name, bad := isNoCopy(tv.Type); bad {
			pass.Reportf(arg.Pos(), "argument copies move-only type %s by value; pass a pointer", name)
		}
	}
}

// isCopySource reports whether e reads an existing value (as opposed to
// constructing a fresh one, which is a legal way to obtain a move-only
// value).
func isCopySource(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name != "_"
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return true
	case *ast.ParenExpr:
		return isCopySource(x.X)
	}
	return false
}

// markedNoCopy collects this package's types whose declaration doc
// carries the repolint:nocopy marker.
func markedNoCopy(pass *Pass) map[string]bool {
	marked := make(map[string]bool)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			declDoc := gd.Doc
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				doc := ts.Doc
				if doc == nil {
					doc = declDoc
				}
				if doc != nil && strings.Contains(doc.Text(), noCopyMarker) {
					marked[ts.Name.Name] = true
				}
				if ts.Comment != nil && strings.Contains(ts.Comment.Text(), noCopyMarker) {
					marked[ts.Name.Name] = true
				}
			}
		}
	}
	return marked
}
