// Package driver runs the repolint analyzer suite over type-checked
// packages. Two loading modes share the same core:
//
//   - standalone (golist.go): `repolint ./...` shells out to
//     `go list -export -json -deps -test`, parses the target packages
//     from source, and type-checks them against the export data the
//     build cache already holds — no module dependencies, no network;
//   - vettool (unitchecker.go): `go vet -vettool=repolint` drives the
//     binary through cmd/go's unitchecker protocol, one package per
//     invocation, with the import map and export files handed over in
//     a JSON config.
//
// Both modes analyze the same units — each package once, together with
// its in-package _test.go files when it has any, plus its external test
// package (vetUnit) — so the local command and CI give one answer.
//
// Both modes honour //repolint:ok suppressions and report how many
// findings were suppressed, so blanket suppressions stay visible.
package driver

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"sort"

	"repro/internal/analysis"
)

// A Diag is one formatted finding.
type Diag struct {
	Analyzer string
	Posn     token.Position
	Message  string
}

// Analyze runs analyzers over one type-checked package and returns the
// surviving findings plus the count of suppressed ones. Findings come
// back sorted by position.
func Analyze(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, sizes types.Sizes, analyzers []*analysis.Analyzer) (diags []Diag, suppressed int, err error) {
	sup := analysis.NewSuppressions(fset, files)
	for _, a := range analyzers {
		a := a
		report := func(d analysis.Diagnostic) {
			if sup.Suppressed(fset, a.Name, d.Pos) {
				suppressed++
				return
			}
			diags = append(diags, Diag{
				Analyzer: a.Name,
				Posn:     fset.Position(d.Pos),
				Message:  d.Message,
			})
		}
		pass := analysis.NewPass(a, fset, files, pkg, info, sizes, report)
		if runErr := a.Run(pass); runErr != nil {
			return nil, suppressed, fmt.Errorf("%s: %w", a.Name, runErr)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Posn, diags[j].Posn
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return diags, suppressed, nil
}

// Print writes findings in the canonical file:line:col format.
func Print(w io.Writer, diags []Diag) {
	for _, d := range diags {
		fmt.Fprintf(w, "%s: [%s] %s\n", d.Posn, d.Analyzer, d.Message)
	}
}

// NewInfo allocates the types.Info maps the analyzers consume.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}
