package program

import (
	"fmt"
	"go/token"

	"ascoma/internal/analysis"
)

// An Analyzer is a whole-program analysis: unlike analysis.Analyzer it sees
// every package at once, plus the call graph, so it can state properties of
// call chains rather than single functions.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and command-line flags.
	Name string

	// Doc is the one-paragraph documentation shown by `ascoma-vet help`.
	Doc string

	// Run applies the analysis to the loaded program.
	Run func(*Pass) error
}

func (a *Analyzer) String() string { return a.Name }

// A Pass provides one program analyzer with the loaded program and accepts
// its diagnostics.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program

	// Report delivers one diagnostic.
	Report func(analysis.Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(analysis.Diagnostic{
		Pos:      pos,
		Category: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Allowed reports whether a diagnostic at pos is suppressed by the named
// escape hatch (same line or line above, reason required), anywhere in the
// program.
func (p *Pass) Allowed(pos token.Pos, hatch string) bool {
	return p.Prog.Allowed(pos, hatch)
}

// RunAnalyzers applies analyzers to an already-loaded program and returns
// the collected diagnostics in report order; drivers sort before printing.
// Each per-package analyzer runs on every package it AppliesTo, then each
// whole-program analyzer runs once. It is the only place a Pass of either
// kind is built.
func RunAnalyzers(prog *Program, pkgAnalyzers []*analysis.Analyzer, progAnalyzers []*Analyzer) ([]analysis.Diagnostic, error) {
	var diags []analysis.Diagnostic
	report := func(d analysis.Diagnostic) { diags = append(diags, d) }
	for _, pkg := range prog.Pkgs {
		for _, a := range pkgAnalyzers {
			if !a.AppliesTo(pkg.Path) {
				continue
			}
			pass := &analysis.Pass{
				Analyzer:   a,
				Fset:       prog.Fset,
				Files:      pkg.Files,
				Pkg:        pkg.Pkg,
				TypesInfo:  pkg.Info,
				Directives: prog.directives,
				Report:     report,
			}
			if err := a.Run(pass); err != nil {
				return diags, fmt.Errorf("analyzer %s on %s: %v", a.Name, pkg.Path, err)
			}
		}
	}
	for _, a := range progAnalyzers {
		pass := &Pass{Analyzer: a, Prog: prog, Report: report}
		if err := a.Run(pass); err != nil {
			return diags, fmt.Errorf("analyzer %s: %v", a.Name, err)
		}
	}
	return diags, nil
}
