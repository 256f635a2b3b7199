package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PooledEscape checks that values drawn from internal/alloc pools reach
// a release on every path.
//
// The steady-state submit and wire paths are allocation-free because
// job frames and codec buffers recycle through internal/alloc
// (MultiLevel.GetShared, BufPool.Get). A leaked pooled value is
// invisible to every test — the GC collects it and correctness holds —
// but it silently degrades the 0 allocs/op contract of the cheap
// BenchmarkPoolThroughput rows: each leak turns a recycled frame back
// into a fresh heap allocation.
//
// The check is a per-function lifetime walk (a lightweight stand-in
// for an SSA leak analysis, with ownership-transfer edges treated as
// trusted):
//
//   - a pool Get whose result is discarded (no assignment, or assigned
//     to _) is always a leak; so is a discarded take from a frame holder
//     (core.Outbox.Take: finished job frames queue in an Outbox chain
//     between delivery and release — a sanctioned place for pooled frames
//     to be — and whoever takes the chain owes each frame its Release);
//   - a result kept in a local variable must either reach a matching
//     Put/PutShared (possibly deferred), be released through one of its
//     own lifetime methods (Release/Close/Free), or visibly transfer
//     ownership — returned, stored into a field/index/global, sent on a
//     channel, placed in a composite literal, its address taken, or
//     passed to another function;
//   - when the only release is lexically *after* an early return that
//     does not itself transfer the value, that return path leaks and is
//     reported (the shape behind most pool leaks in review).
//
// Functions that transfer ownership are trusted to release; the
// analyzer follows no call graph. That keeps it quiet and fast, and the
// two shapes it does flag are precisely the ones that cannot be
// intentional.
var PooledEscape = &Analyzer{
	Name: "pooledescape",
	Doc:  "internal/alloc pool values must be released or ownership-transferred on every path",
	Run:  runPooledEscape,
}

// Pool method names. Receivers must be named types declared in a
// package matching PoolPackages.
var (
	// PoolPackages are the import-path suffixes whose Get-like methods
	// hand out pooled values.
	PoolPackages = []string{"internal/alloc"}
	poolGets     = map[string]bool{"Get": true, "GetShared": true}
	poolPuts     = map[string]bool{"Put": true, "PutShared": true, "PutSharedRun": true}
	// releaseMethods on the pooled value itself end its lifetime (the
	// job-frame Release path).
	releaseMethods = map[string]bool{"Release": true, "Close": true, "Free": true}
)

// The one holder of pooled values outside the pools: core.Outbox chains
// finished job frames on their way back, and its Take hands them — and the
// duty to release them — to the caller, like a Get.
const holderPackage, holderType, holderMethod = "internal/core", "Outbox", "Take"

func runPooledEscape(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil {
				checkPoolFunc(pass, fd)
			}
		}
	}
	return nil
}

// calledMethod resolves call to the method it invokes, or nil for
// anything else. Methods only: a package-level Get in alloc would be a
// different API; receivers are what the pools expose.
func calledMethod(pass *Pass, call *ast.CallExpr) *types.Func {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() == nil {
		return nil
	}
	return fn
}

// poolCall classifies call as a pool Get/Put, returning the method name.
func poolCall(pass *Pass, call *ast.CallExpr, names map[string]bool) (string, bool) {
	fn := calledMethod(pass, call)
	if fn == nil || !names[fn.Name()] || !pathIn(fn.Pkg().Path(), PoolPackages) {
		return "", false
	}
	return fn.Name(), true
}

// holderTake classifies call as a take from the frame holder, returning
// "Type.Method".
func holderTake(pass *Pass, call *ast.CallExpr) (string, bool) {
	fn := calledMethod(pass, call)
	if fn == nil || fn.Name() != holderMethod || !pathIn(fn.Pkg().Path(), []string{holderPackage}) {
		return "", false
	}
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	if n, ok := recv.(*types.Named); !ok || n.Obj().Name() != holderType {
		return "", false
	}
	return holderType + "." + holderMethod, true
}

func checkPoolFunc(pass *Pass, fd *ast.FuncDecl) {
	// Collect the pool Gets and how each result is bound.
	type tracked struct {
		obj    types.Object
		getPos token.Pos
		method string
	}
	var locals []tracked

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		method, ok := poolCall(pass, call, poolGets)
		if !ok {
			method, ok = holderTake(pass, call)
		}
		if !ok {
			return true
		}
		switch binding := poolGetBinding(fd.Body, call); b := binding.(type) {
		case nil:
			// Nested in a larger expression: the value transfers
			// (return pool.Get(…), f(pool.Get(…)), field init, …).
		case *ast.ExprStmt:
			pass.Reportf(call.Pos(), "result of %s is discarded; the pooled value leaks (call the matching Put, or keep the value)", method)
		case *ast.AssignStmt:
			lhs := assignLHSFor(b, call)
			switch l := lhs.(type) {
			case *ast.Ident:
				if l.Name == "_" {
					pass.Reportf(call.Pos(), "result of %s is assigned to _; the pooled value leaks", method)
					break
				}
				obj := pass.TypesInfo.Defs[l]
				if obj == nil {
					obj = pass.TypesInfo.Uses[l]
				}
				if obj != nil && objIsLocal(obj, fd) {
					locals = append(locals, tracked{obj: obj, getPos: call.Pos(), method: method})
				}
				// Assignment to a package-level var transfers.
			default:
				// Field/index/deref assignment: ownership moved into a
				// longer-lived structure (wire.Encoder.buf idiom).
			}
		}
		return true
	})

	for _, tr := range locals {
		checkTrackedValue(pass, fd, tr.obj, tr.getPos, tr.method)
	}
}

// poolGetBinding returns the statement that directly binds call's
// result: an ExprStmt (discard), an AssignStmt, or nil when the call is
// nested inside a larger expression (a transfer).
func poolGetBinding(body *ast.BlockStmt, call *ast.CallExpr) ast.Node {
	var found ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		switch s := n.(type) {
		case *ast.ExprStmt:
			if s.X == call {
				found = s
				return false
			}
		case *ast.AssignStmt:
			for _, r := range s.Rhs {
				if r == call {
					found = s
					return false
				}
			}
		}
		return true
	})
	return found
}

// assignLHSFor returns the LHS expression aligned with call on the RHS.
func assignLHSFor(as *ast.AssignStmt, call *ast.CallExpr) ast.Expr {
	if len(as.Lhs) == len(as.Rhs) {
		for i, r := range as.Rhs {
			if r == call {
				return as.Lhs[i]
			}
		}
	}
	if len(as.Lhs) > 0 {
		return as.Lhs[0]
	}
	return nil
}

func objIsLocal(obj types.Object, fd *ast.FuncDecl) bool {
	return obj.Pos() >= fd.Pos() && obj.Pos() <= fd.End()
}

// checkTrackedValue walks the function for the fate of one pooled local.
func checkTrackedValue(pass *Pass, fd *ast.FuncDecl, obj types.Object, getPos token.Pos, method string) {
	var (
		firstRelease token.Pos // earliest Put/Release covering the value
		escaped      bool
	)
	useIs := func(id *ast.Ident) bool { return pass.TypesInfo.Uses[id] == obj }

	// Pass A: find releases and escapes.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			// Release sink: pool.Put(w, v) / v.Release().
			if _, ok := poolCall(pass, x, poolPuts); ok {
				for _, arg := range x.Args {
					if id, ok := arg.(*ast.Ident); ok && useIs(id) {
						if firstRelease == token.NoPos || x.Pos() < firstRelease {
							firstRelease = x.Pos()
						}
						return true
					}
				}
			}
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && releaseMethods[sel.Sel.Name] {
				if id, ok := sel.X.(*ast.Ident); ok && useIs(id) {
					if firstRelease == token.NoPos || x.Pos() < firstRelease {
						firstRelease = x.Pos()
					}
					return true
				}
			}
			// Any other call receiving the value transfers ownership —
			// except builtins (len, cap, append back into the same
			// variable), which read or grow the value without taking it.
			if fid, ok := x.Fun.(*ast.Ident); ok {
				if _, isBuiltin := pass.TypesInfo.Uses[fid].(*types.Builtin); isBuiltin {
					return true
				}
			}
			for _, arg := range x.Args {
				if id, ok := arg.(*ast.Ident); ok && useIs(id) {
					escaped = true
				}
			}
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				if id, ok := r.(*ast.Ident); ok && useIs(id) {
					escaped = true
				}
			}
		case *ast.AssignStmt:
			// v reassigned into anything (field, map slot, another
			// variable) transfers; conservative but quiet.
			for _, r := range x.Rhs {
				if id, ok := r.(*ast.Ident); ok && useIs(id) {
					escaped = true
				}
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if id, ok := x.X.(*ast.Ident); ok && useIs(id) {
					escaped = true
				}
			}
		case *ast.SendStmt:
			if id, ok := x.Value.(*ast.Ident); ok && useIs(id) {
				escaped = true
			}
		case *ast.CompositeLit:
			for _, el := range x.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				if id, ok := el.(*ast.Ident); ok && useIs(id) {
					escaped = true
				}
			}
		}
		return true
	})

	if escaped {
		return // ownership visibly moved; trusted
	}
	if firstRelease == token.NoPos {
		pass.Reportf(getPos, "pooled value from %s is neither released (Put/Release) nor ownership-transferred in this function; it leaks on every path", method)
		return
	}

	// Pass B: early returns between the Get and the first release leak.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		if ret.Pos() > getPos && ret.Pos() < firstRelease {
			pass.Reportf(ret.Pos(), "return path drops the pooled value from %s obtained at %s before its release at %s; release it (or defer the release) before returning",
				method, pass.Fset.Position(getPos), pass.Fset.Position(firstRelease))
		}
		return true
	})
}
