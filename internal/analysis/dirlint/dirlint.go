// Package dirlint audits the //ascoma: directive language itself. The
// directives are load-bearing — annotations root whole-program analyses and
// escape hatches cut them — so a typo ("//ascoma:hotpah") or a reasonless
// hatch would silently weaken a check. dirlint walks every comment of every
// package and enforces:
//
//   - the directive name is in analysis.KnownDirectives;
//   - every escape hatch carries a reason string (CI fails otherwise).
package dirlint

import (
	"ascoma/internal/analysis"
	"ascoma/internal/analysis/program"
)

// Analyzer is the dirlint analysis.
var Analyzer = &program.Analyzer{
	Name: "dirlint",
	Doc:  "audit //ascoma: directives: known names only, reasons on every escape hatch",
	Run:  run,
}

func run(pass *program.Pass) error {
	for _, pkg := range pass.Prog.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					d, ok := analysis.ParseDirective(c)
					if !ok {
						continue
					}
					kind, known := analysis.KnownDirectives[d.Name]
					if !known {
						pass.Reportf(d.Pos, "unknown directive //ascoma:%s", d.Name)
						continue
					}
					if kind == analysis.Hatch && d.Arg == "" {
						pass.Reportf(d.Pos, "escape hatch //ascoma:%s requires a reason", d.Name)
					}
				}
			}
		}
	}
	return nil
}
