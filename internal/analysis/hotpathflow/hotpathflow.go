// Package hotpathflow enforces the hotpath allocation discipline over every
// //ascoma:hotpath root and its *transitive* call closure: a hot function
// cannot call an allocating helper undetected. It walks the whole-program
// call graph (static calls, interface dispatch resolved to every
// implementing program type, func values resolved by flow propagation) from
// the annotated roots and applies the allocation checks of
// hotpath.CheckAllocs to each root's own body and to every reachable
// function, reporting the call path that makes each one hot (a root's path
// is its own name).
//
// The closure is cut explicitly, never silently:
//
//   - //ascoma:hotpath-stop <reason> on a function declaration marks the
//     hot/slow boundary: the function and everything it alone reaches are
//     excluded (e.g. the lock slow path, the sampling probes);
//   - //ascoma:allow-hotcall <reason> on a call site exempts that one edge;
//   - //ascoma:allow-alloc <reason> suppresses one allocating construct.
//
// Standard-library callees are leaves: their cost is the call itself, which
// CheckAllocs already polices in the calling body (fmt, append, make…).
package hotpathflow

import (
	"go/token"

	"ascoma/internal/analysis/hotpath"
	"ascoma/internal/analysis/program"
)

// Analyzer is the hotpathflow analysis.
var Analyzer = &program.Analyzer{
	Name: "hotpathflow",
	Doc:  "enforce zero-alloc discipline in //ascoma:hotpath roots and their transitive call closure",
	Run:  run,
}

func run(pass *program.Pass) error {
	prog := pass.Prog
	roots := prog.FuncsWithDirective("hotpath")
	if len(roots) == 0 {
		return nil
	}
	reach := prog.Reachable(roots, func(e program.Edge) bool {
		if arg, ok := e.Callee.Directive("hotpath-stop"); ok && arg != "" {
			return true
		}
		return prog.Allowed(e.Pos, "allow-hotcall")
	})

	reported := make(map[token.Pos]bool)
	for _, f := range reach.Funcs {
		body := f.Body()
		if body == nil {
			continue
		}
		path := reach.Path(f)
		hotpath.CheckAllocs(f.Pkg.Info, f.Pkg.Pkg, body, func(pos token.Pos, format string, args ...interface{}) {
			if reported[pos] || pass.Allowed(pos, "allow-alloc") {
				return
			}
			reported[pos] = true
			pass.Reportf(pos, "hot via %s: "+format, append([]interface{}{path}, args...)...)
		})
	}
	return nil
}
