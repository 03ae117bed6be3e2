package hotpath_test

import (
	"go/ast"
	"go/token"
	"testing"

	"ascoma/internal/analysis"
	"ascoma/internal/analysis/analysistest"
	"ascoma/internal/analysis/hotpath"
)

// allBodies applies the rule set to every function body of the corpus, so
// the test pins CheckAllocs itself: which constructs it flags and which it
// leaves alone. The //ascoma:hotpath roots, their call closure and the
// allow-alloc hatch are hotpathflow's concern and tested there.
var allBodies = &analysis.Analyzer{
	Name: "hotpathrules",
	Doc:  "apply hotpath.CheckAllocs to every function body",
	Run: func(pass *analysis.Pass) error {
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				hotpath.CheckAllocs(pass.TypesInfo, pass.Pkg, fd.Body, func(pos token.Pos, format string, args ...interface{}) {
					pass.Reportf(pos, format, args...)
				})
			}
		}
		return nil
	},
}

func TestHotpath(t *testing.T) {
	analysistest.Run(t, allBodies, "../testdata/src/hotpath")
}
