// Package analysis is the repo's custom static-analysis layer: a small
// go/analysis-compatible framework plus a suite of analyzers that
// mechanically enforce the lock-free hot path's concurrency invariants
// (cache-line padding, no-copy types, pooled-value lifetimes, typed
// admission errors, atomic/plain access mixing).
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis —
// an Analyzer owns a Run function over a Pass of parsed, type-checked
// files — but is built purely on the standard library (go/ast,
// go/types, go/importer), so the suite needs no module dependencies:
// the driver (internal/analysis/driver) loads packages through `go
// list -export` or through the `go vet -vettool` unitchecker protocol.
//
// Invariants these analyzers encode, and why each exists, are
// documented per analyzer file and summarized in ARCHITECTURE.md
// ("Correctness tooling"). A finding can be suppressed — with a
// justification — by a trailing comment on the offending line or the
// line above it:
//
//	x := y //repolint:ok nocopy — snapshot of a quiescent gate in a test helper
//
// Suppressions name the analyzer (comma-separated for several) and
// should carry a reason; the driver counts them so a silent blanket
// suppression shows up in review.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in reports, -<name> enable flags,
	// and //repolint:ok suppressions.
	Name string
	// Doc is the analyzer's help text; the first line is the summary.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Pass is one analyzer's view of one type-checked package. Mirrors
// golang.org/x/tools/go/analysis.Pass minus facts and subanalyzer
// results, which this suite does not need.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Sizes     types.Sizes

	// report receives diagnostics; installed by the driver (which
	// applies suppressions and output formatting).
	report func(Diagnostic)
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	End     token.Pos
	Message string
}

// Reportf emits a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, End: pos, Message: fmt.Sprintf(format, args...)})
}

// NewPass assembles a pass for one package; report receives every
// diagnostic (before suppression filtering — use Suppressions).
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, sizes types.Sizes, report func(Diagnostic)) *Pass {
	return &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info, Sizes: sizes, report: report}
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		FalseShare,
		NoCopy,
		PooledEscape,
		AdmitErr,
		AtomicMix,
	}
}

// CacheLine is the cache-line size the padding invariants assume. The
// paper's target systems (and every amd64/arm64 part we run on) use
// 64-byte lines; the padded idioms in internal/intake and internal/load
// are written against the same constant.
const CacheLine = 64

// pathIn reports whether pkgpath matches one of the target suffixes
// ("internal/intake" matches both "repro/internal/intake" and a test
// fixture loaded under the bare suffix).
func pathIn(pkgpath string, suffixes []string) bool {
	for _, s := range suffixes {
		if pkgpath == s || strings.HasSuffix(pkgpath, "/"+s) {
			return true
		}
	}
	return false
}

// isAtomicType reports whether t is one of sync/atomic's typed atomics
// (atomic.Int32, atomic.Uint64, atomic.Pointer[T], atomic.Value, …).
func isAtomicType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

// isBlank reports whether v is a blank (padding) field.
func isBlank(v *types.Var) bool { return v.Name() == "_" }

// enclosingFunc returns the FuncDecl whose body lexically contains pos,
// or nil.
func enclosingFunc(files []*ast.File, pos token.Pos) *ast.FuncDecl {
	for _, f := range files {
		if pos < f.Pos() || pos > f.End() {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil && fd.Body.Pos() <= pos && pos <= fd.Body.End() {
				return fd
			}
		}
	}
	return nil
}
