// Package analysis is a small, dependency-free static-analysis framework
// modeled on golang.org/x/tools/go/analysis. The repo cannot vendor x/tools
// (builds must work offline with nothing but the toolchain), and the
// repo-specific per-package checkers under internal/analysis/* need only a
// fraction of its surface: an Analyzer with a Run function, a Pass carrying
// one type-checked package, and positioned diagnostics. Passes are built in
// one place, program.RunAnalyzers, over a module loaded once by
// program.Load; cmd/ascoma-vet and the analysistest harness both go
// through it.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one analysis and how to run it.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and command-line flags.
	// It must be a valid Go identifier.
	Name string

	// Doc is the one-paragraph documentation shown by `ascoma-vet help`.
	Doc string

	// Packages restricts the analyzer to packages whose import path equals
	// one of these entries, or — for entries ending in "/..." — sits in
	// that subtree. Empty means every package. program.RunAnalyzers
	// applies the restriction; analysistest lifts it, so test corpora
	// (whose synthetic package paths match nothing) still exercise the
	// checks.
	Packages []string

	// Run applies the analysis to one package.
	Run func(*Pass) error
}

func (a *Analyzer) String() string { return a.Name }

// AppliesTo reports whether the analyzer covers the package path under its
// Packages restriction.
func (a *Analyzer) AppliesTo(pkgPath string) bool {
	if len(a.Packages) == 0 {
		return true
	}
	for _, p := range a.Packages {
		if sub, ok := strings.CutSuffix(p, "/..."); ok {
			if pkgPath == sub || strings.HasPrefix(pkgPath, sub+"/") {
				return true
			}
		} else if pkgPath == p {
			return true
		}
	}
	return false
}

// A Pass provides one analyzer with the type-checked syntax of a single
// package and accepts its diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File // package syntax; drivers exclude _test.go files
	Pkg       *types.Package
	TypesInfo *types.Info

	// Directives answers Allowed; it covers at least the package's files.
	Directives *DirectiveIndex

	// Report delivers one diagnostic.
	Report func(Diagnostic)
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Pos
	Category string // the analyzer name
	Message  string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{
		Pos:      pos,
		Category: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}
