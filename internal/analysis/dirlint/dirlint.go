// Package dirlint audits the //ascoma: directive language itself. Every
// directive is an escape hatch that silences one finding, so a typo
// ("//ascoma:allow-nondt") or a reasonless hatch would silently weaken a
// check or hide why it was silenced. dirlint walks every comment of every
// package and enforces:
//
//   - the directive name is in analysis.KnownDirectives;
//   - every directive carries a reason string (CI fails otherwise).
package dirlint

import "ascoma/internal/analysis"

// Analyzer is the dirlint analysis.
var Analyzer = &analysis.Analyzer{
	Name: "dirlint",
	Doc:  "audit //ascoma: directives: known names only, a reason on every escape hatch",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := analysis.ParseDirective(c)
				if !ok {
					continue
				}
				if !analysis.KnownDirectives[d.Name] {
					pass.Reportf(d.Pos, "unknown directive //ascoma:%s", d.Name)
				} else if d.Arg == "" {
					pass.Reportf(d.Pos, "escape hatch //ascoma:%s requires a reason", d.Name)
				}
			}
		}
	}
	return nil
}
