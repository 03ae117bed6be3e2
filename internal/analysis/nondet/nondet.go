// Package nondet forbids nondeterminism sources in the simulator's
// deterministic core. The golden-checksum matrix (testdata/golden_stats.json)
// pins bit-identical statistics for 72 configurations; anything that can
// vary between two runs of the same config — wall-clock reads, the globally
// seeded math/rand generator, or Go's randomized map iteration order — must
// never feed event scheduling, statistics, or serialized output in those
// packages.
//
// Flagged:
//
//   - calls to time.Now, time.Since, time.Until (wall-clock reads);
//   - calls to package-level math/rand and math/rand/v2 functions, which
//     draw from a shared, impliedly seeded source (constructing an explicit
//     source — rand.New, rand.NewSource, rand.NewZipf, rand.NewPCG — is
//     fine: the nondeterminism is the hidden global state, not the
//     algorithm);
//   - `for ... range m` where m is a map: iteration order is randomized per
//     run.
//
// A map range whose body is genuinely order-independent (it folds into a
// commutative aggregate, or sorts before use) is suppressed with
//
//	//ascoma:allow-nondet <reason>
//
// on the statement's line or the line above.
package nondet

import (
	"go/ast"
	"go/types"

	"ascoma/internal/analysis"
)

// DeterministicPackages lists the packages whose behaviour the golden
// checksums pin.
var DeterministicPackages = []string{
	"ascoma/internal/sim",
	"ascoma/internal/machine",
	"ascoma/internal/directory",
	"ascoma/internal/cache",
	"ascoma/internal/vm",
	"ascoma/internal/dense",
	"ascoma/internal/workload",
	"ascoma/internal/stats",
	"ascoma/internal/obs",
	"ascoma/internal/estimate",
	"ascoma/internal/jobs",
}

// Analyzer is the nondet analysis.
var Analyzer = &analysis.Analyzer{
	Name:     "nondet",
	Doc:      "forbid wall-clock reads, unseeded math/rand, and map iteration in the deterministic simulator packages",
	Packages: DeterministicPackages,
	Run:      run,
}

// randConstructors are the math/rand functions that build an explicitly
// seeded generator rather than drawing from the package-global one.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.RangeStmt:
				checkRange(pass, n)
			}
			return true
		})
	}
	return nil
}

// pkgFunc resolves a call to a package-level function of an imported
// package, returning the package path and function name.
func pkgFunc(pass *analysis.Pass, call *ast.CallExpr) (path, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	pkgName, isPkg := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pkgName.Imported().Path(), sel.Sel.Name, true
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	path, name, ok := pkgFunc(pass, call)
	if !ok {
		return
	}
	switch path {
	case "time":
		switch name {
		case "Now", "Since", "Until":
			if !pass.Allowed(call.Pos(), "allow-nondet") {
				pass.Reportf(call.Pos(), "call to time.%s in a deterministic package: simulated time must come from the event clock", name)
			}
		}
	case "math/rand", "math/rand/v2":
		if randConstructors[name] {
			return
		}
		if !pass.Allowed(call.Pos(), "allow-nondet") {
			pass.Reportf(call.Pos(), "call to %s.%s draws from the global random source: construct an explicitly seeded generator instead", path, name)
		}
	}
}

func checkRange(pass *analysis.Pass, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if pass.Allowed(rng.Pos(), "allow-nondet") {
		return
	}
	pass.Reportf(rng.Pos(), "map iteration order is randomized: sort the keys, or mark the loop //ascoma:allow-nondet <reason> if its effect is order-independent")
}
