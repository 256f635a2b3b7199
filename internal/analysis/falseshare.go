package analysis

import (
	"go/ast"
	"go/types"
)

// FalseShare enforces the hot path's cache-line padding invariant.
//
// The intake ring, the wakeup primitives, the load-signal cells, and
// the admission gauges are the write-hottest words of the submit path;
// an atomic field that shares a cache line with another mutable field
// turns every store into cross-core invalidation traffic for unrelated
// readers (the false-sharing effect the fast-path submission work paid
// to remove). The invariant: in the hot packages, an atomic field of a
// flagged struct must not share a 64-byte line with any other field —
// the intake.Ring cursor idiom (a blank [N]uint64 pad before and after)
// or the prof.paddedGauge idiom (gauge alone on its line). A field whose
// type is one of prof's padded cells (PaddedCells) is as hot as the
// atomic inside it: a struct that embeds one next to colder state
// (prof.admitSlot) is checked the same way, so the cell's line stays its
// own when the struct is laid out in an array.
//
// Two escape hatches keep the rule honest rather than noisy:
//
//   - a struct whose non-padding fields are all atomics and whose total
//     size fits one cache line is a "packed publication group" (one
//     writer publishes all fields together); intra-struct sharing is
//     the design, so only its *element size* is checked:
//     used as an array or slice element, its size must be a multiple of
//     the cache line so neighbouring elements stay off each other's
//     lines;
//   - //repolint:ok falseshare suppresses with justification.
//
// Checked structs are the named hot set (Ring, Gate, Bell, Cell,
// paddedGauge, paddedFloat, admitSlot, Profile; core's service, Outbox
// and parkedRun) plus any struct in a hot package that already uses the padding
// idiom (a blank pad of at least 48 bytes next to an atomic field):
// partial padding — head padded, tail forgotten — is precisely the
// regression this analyzer exists to catch.
var FalseShare = &Analyzer{
	Name: "falseshare",
	Doc:  "hot atomic fields must be cache-line padded (intake, load, prof, core.service, core.Outbox, core.parkedRun)",
	Run:  runFalseShare,
}

// FalseSharePackages are the import-path suffixes falseshare inspects.
var FalseSharePackages = []string{"internal/intake", "internal/load", "internal/prof"}

// FalseShareTypes are the always-checked hot struct names within those
// packages.
var FalseShareTypes = map[string]bool{
	"Ring":        true,
	"Gate":        true,
	"Bell":        true,
	"Cell":        true,
	"paddedGauge": true,
	"paddedFloat": true,
	"admitSlot":   true,
	"Profile":     true,
}

// Outside those packages falseshare inspects three structs of core:
// service (its lifecycle word is touched by every submitter, finishing
// worker and idle poller), Outbox (its head by every worker finishing a
// job of the connection, and by the connection's writer) and parkedRun
// (its claim cursor by every worker adopting from the run); core's
// per-worker layouts pad by other rules.
const hotCorePackage = "internal/core"

var hotCoreStructs = map[string]bool{"service": true, "Outbox": true, "parkedRun": true}

// PaddedCells are the hot packages' own one-line cell types; a field of
// one of them counts as a hot atomic field of the struct that holds it.
var PaddedCells = map[string]bool{"paddedGauge": true, "paddedFloat": true}

// minIdiomPad is the smallest blank pad that marks a struct as opting
// into the padding idiom (CacheLine minus the largest atomic, so both
// [7]uint64 and [56]byte style pads qualify).
const minIdiomPad = CacheLine - 16

func runFalseShare(pass *Pass) error {
	var only map[string]bool
	if !pathIn(pass.Pkg.Path(), FalseSharePackages) {
		if !pathIn(pass.Pkg.Path(), []string{hotCorePackage}) {
			return nil
		}
		only = hotCoreStructs
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || only != nil && !only[ts.Name.Name] {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			checkFalseShareStruct(pass, ts, st, only != nil)
			return true
		})
	}
	return nil
}

// fieldLayout is one struct field with its computed layout.
type fieldLayout struct {
	v    *types.Var
	node ast.Node // the declaring ast.Field (diagnostic anchor)
	off  int64
	size int64
}

func checkFalseShareStruct(pass *Pass, ts *ast.TypeSpec, st *ast.StructType, always bool) {
	obj, ok := pass.TypesInfo.Defs[ts.Name]
	if !ok {
		return
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		return
	}
	str, ok := named.Underlying().(*types.Struct)
	if !ok || str.NumFields() == 0 {
		return
	}

	// Layout. Bail silently on structs whose size depends on a type
	// parameter (intake.slot's val T) — the checked hot types keep
	// their atomics and pads in concretely-typed fields.
	fields := make([]*types.Var, str.NumFields())
	for i := range fields {
		fields[i] = str.Field(i)
		if !sizeable(fields[i].Type()) {
			return
		}
	}
	offsets := pass.Sizes.Offsetsof(fields)
	layout := make([]fieldLayout, len(fields))
	var total int64
	nodes := fieldNodes(st, len(fields))
	for i, v := range fields {
		layout[i] = fieldLayout{v: v, node: nodes[i], off: offsets[i], size: pass.Sizes.Sizeof(v.Type())}
	}
	total = pass.Sizes.Sizeof(str)

	// Classify.
	var hasAtomic, hasIdiomPad, allAtomic = false, false, true
	for _, f := range layout {
		switch {
		case isBlank(f.v):
			if f.size >= minIdiomPad {
				hasIdiomPad = true
			}
		case isHotField(pass, f.v.Type()):
			hasAtomic = true
		default:
			allAtomic = false
		}
	}
	if !hasAtomic {
		return
	}
	checked := always || FalseShareTypes[ts.Name.Name] || hasIdiomPad
	if !checked {
		return
	}

	// Packed publication group: all-atomic, one line. Only the element
	// size is constrained.
	if allAtomic && total <= CacheLine {
		if total%CacheLine != 0 && usedAsElement(pass, named) {
			pass.Reportf(ts.Pos(),
				"%s is a packed atomic struct used as an array/slice element but its size %d B is not a multiple of the %d B cache line; pad it to a whole line so neighbouring elements do not share lines",
				ts.Name.Name, total, CacheLine)
		}
		return
	}

	// Pairwise: every atomic field must have its 64-byte line(s) to
	// itself.
	for i, f := range layout {
		if isBlank(f.v) || !isHotField(pass, f.v.Type()) || f.size == 0 {
			continue
		}
		for j, g := range layout {
			if j == i || isBlank(g.v) || g.size == 0 {
				continue
			}
			if linesOverlap(f, g) {
				pos := f.node.Pos()
				pass.Reportf(pos,
					"hot atomic field %s.%s (bytes %d-%d) shares a cache line with %s (bytes %d-%d); isolate it with blank padding (intake.Ring cursor idiom)",
					ts.Name.Name, f.v.Name(), f.off, f.off+f.size-1, g.v.Name(), g.off, g.off+g.size-1)
				break // one report per atomic field
			}
		}
	}

	if usedAsElement(pass, named) && total%CacheLine != 0 {
		pass.Reportf(ts.Pos(),
			"%s contains hot atomic fields and is used as an array/slice element but its size %d B is not a multiple of the %d B cache line",
			ts.Name.Name, total, CacheLine)
	}
}

// isHotField reports whether t is a sync/atomic value or one of this
// package's padded cells.
func isHotField(pass *Pass, t types.Type) bool {
	if isAtomicType(t) {
		return true
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() == pass.Pkg && PaddedCells[n.Obj().Name()]
}

// linesOverlap reports whether two fields can occupy the same 64-byte
// line (assuming a line-aligned struct base — the layout the padding
// idiom is written for).
func linesOverlap(a, b fieldLayout) bool {
	aStart, aEnd := a.off/CacheLine, (a.off+a.size-1)/CacheLine
	bStart, bEnd := b.off/CacheLine, (b.off+b.size-1)/CacheLine
	return aStart <= bEnd && bStart <= aEnd
}

// fieldNodes flattens the struct's ast fields into one node per
// types.Struct field (a single ast.Field can declare several names).
func fieldNodes(st *ast.StructType, n int) []ast.Node {
	nodes := make([]ast.Node, 0, n)
	for _, f := range st.Fields.List {
		k := len(f.Names)
		if k == 0 {
			k = 1 // embedded
		}
		for i := 0; i < k; i++ {
			nodes = append(nodes, f)
		}
	}
	for len(nodes) < n {
		nodes = append(nodes, st)
	}
	return nodes[:n]
}

// usedAsElement reports whether named appears as an array or slice
// element type anywhere in the package.
func usedAsElement(pass *Pass, named *types.Named) bool {
	found := false
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if found {
				return false
			}
			at, ok := n.(*ast.ArrayType)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[at.Elt]
			if !ok {
				return true
			}
			if en, ok := tv.Type.(*types.Named); ok && origin(en) == origin(named) {
				found = true
			}
			return true
		})
		if found {
			break
		}
	}
	return found
}

func origin(n *types.Named) *types.TypeName { return n.Origin().Obj() }

// sizeable reports whether Sizes can compute t without tripping over a
// type parameter.
func sizeable(t types.Type) bool {
	if _, isParam := t.(*types.TypeParam); isParam {
		// Checked before Underlying: a type parameter's underlying type
		// is its constraint interface, which would wrongly size as a
		// word pair.
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Basic, *types.Pointer, *types.Slice, *types.Map,
		*types.Chan, *types.Signature, *types.Interface:
		return true
	case *types.Array:
		return sizeable(u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if !sizeable(u.Field(i).Type()) {
				return false
			}
		}
		return true
	default:
		return false
	}
}
