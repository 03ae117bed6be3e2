// Package hotpath holds the allocation rule set behind the //ascoma:hotpath
// discipline. The simulator's benchmarks (BENCH_PR1/BENCH_PR3) were bought
// by hand-flattening the per-event path down to a few thousand allocations
// per run; the hotpathflow analyzer keeps it that way by applying
// CheckAllocs to every annotated function and to everything it reaches.
//
// Flagged inside a checked body (nested function literals included):
//
//   - append: growth allocates and the escaped backing array is sticky;
//   - make and new: direct allocations;
//   - function literals: closures allocate their environment;
//   - conversions of concrete values to interface types: the value escapes
//     into the heap-allocated interface payload;
//   - any call into package fmt: formatting allocates and forces escapes;
//   - string concatenation (+ or +=): builds a new heap string.
//
// A deliberate allocation on a cold branch is suppressed with
// //ascoma:allow-alloc <reason>; the caller applies that hatch.
package hotpath

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CheckAllocs walks one function body and reports every heap-allocating
// construct through report. The caller applies the //ascoma:allow-alloc
// hatch.
func CheckAllocs(info *types.Info, pkg *types.Package, body ast.Node, report func(pos token.Pos, format string, args ...interface{})) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			report(n.Pos(), "closure in a hot path allocates its environment")
			return true // still check the closure's body
		case *ast.CallExpr:
			checkCall(info, pkg, n, report)
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(info, n.X) {
				report(n.OpPos, "string concatenation allocates")
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(info, n.Lhs[0]) {
				report(n.TokPos, "string concatenation allocates")
			}
		}
		return true
	})
}

func isString(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func checkCall(info *types.Info, pkg *types.Package, call *ast.CallExpr, report func(token.Pos, string, ...interface{})) {
	// T(x) where T is an interface and x is concrete: the conversion boxes
	// x into a heap-allocated interface payload.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 {
			if argTV, ok := info.Types[call.Args[0]]; ok && argTV.Type != nil && !types.IsInterface(argTV.Type) {
				report(call.Pos(), "conversion to interface type %s allocates", types.TypeString(tv.Type, types.RelativeTo(pkg)))
			}
		}
		return
	}

	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if b, ok := info.Uses[fun].(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				report(call.Pos(), "append may grow and allocate; preallocate or use a pooled buffer")
			case "make", "new":
				report(call.Pos(), "%s allocates; hoist it out of the hot path or reuse a pooled object", b.Name())
			}
		}
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if pkg, ok := info.Uses[id].(*types.PkgName); ok && pkg.Imported().Path() == "fmt" {
				report(call.Pos(), "fmt.%s allocates and forces its operands to escape", fun.Sel.Name)
			}
		}
	}
}
