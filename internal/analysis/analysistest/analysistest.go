// Package analysistest runs an analyzer over a corpus package under
// internal/analysis/testdata/src and checks its diagnostics against
// expectations written in the corpus itself, in the style of
// golang.org/x/tools/go/analysis/analysistest:
//
//	rand.Intn(6) // want `global random source`
//
// A `// want` comment holds one or more backquoted or double-quoted regular
// expressions; each must match a distinct diagnostic reported on that line,
// and every diagnostic must be matched by some expectation. Corpora load
// through program.LoadDir, which type-checks them against the standard
// library from source, so they can import time, math/rand, fmt, and context
// without any build step.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"ascoma/internal/analysis"
	"ascoma/internal/analysis/program"
)

// Run applies the analyzer to the corpus tree rooted at dir (a path
// relative to the test, e.g. "../testdata/src/nondet") and reports
// expectation mismatches as test errors. The directory and each
// subdirectory holding .go files become one package each (see
// program.LoadDir). The corpus's synthetic package paths match no Packages
// restriction, so the harness lifts it.
func Run(t *testing.T, a *analysis.Analyzer, dir string) {
	t.Helper()
	unscoped := *a
	unscoped.Packages = nil
	prog, err := program.LoadDir(dir, filepath.Base(dir))
	if err != nil {
		t.Fatal(err)
	}
	got, err := program.RunAnalyzers(prog, []*analysis.Analyzer{&unscoped})
	if err != nil {
		t.Fatal(err)
	}

	var files []*ast.File
	for _, pkg := range prog.Pkgs {
		files = append(files, pkg.Files...)
	}
	match(t, prog.Fset, got, expectations(t, prog.Fset, files))
}

// match checks every diagnostic against the expectations and every
// expectation against the diagnostics, reporting each mismatch.
func match(t *testing.T, fset *token.FileSet, got []analysis.Diagnostic, wants map[string][]*regexp.Regexp) {
	t.Helper()
	for _, d := range got {
		posn := fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", filepath.Base(posn.Filename), posn.Line)
		matched := false
		for i, w := range wants[key] {
			if w != nil && w.MatchString(d.Message) {
				wants[key][i] = nil
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", key, d.Message)
		}
	}
	keys := make([]string, 0, len(wants))
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, w := range wants[k] {
			if w != nil {
				t.Errorf("%s: expected diagnostic matching %q, got none", k, w)
			}
		}
	}
}

// wantRx extracts the quoted or backquoted expectation strings after "want".
var wantRx = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// expectations collects the // want comments, keyed by "file.go:line".
func expectations(t *testing.T, fset *token.FileSet, files []*ast.File) map[string][]*regexp.Regexp {
	t.Helper()
	out := make(map[string][]*regexp.Regexp)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				// Block form for lines whose diagnostic lands on a line
				// comment (e.g. dirlint reporting a bad directive), where a
				// trailing // want could never fit on the same line:
				//   /* want `unknown directive` */ //ascoma:allow-nondt
				if rest, isBlock := strings.CutPrefix(text, "/*"); isBlock {
					text = strings.TrimSuffix(rest, "*/")
				}
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				posn := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", filepath.Base(posn.Filename), posn.Line)
				for _, m := range wantRx.FindAllStringSubmatch(rest, -1) {
					src := m[1]
					if src == "" {
						src = m[2]
					}
					rx, err := regexp.Compile(src)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", key, src, err)
					}
					out[key] = append(out[key], rx)
				}
			}
		}
	}
	return out
}
