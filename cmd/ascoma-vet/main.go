// Command ascoma-vet is the repository's analyzer suite: repo-specific
// static checks for the fault classes no test catches (DESIGN.md §9 keeps
// the ledger of which mutant each one exists for).
//
//	nondet   no wall-clock, global math/rand, or map iteration in the
//	         deterministic packages (golden-checksum safety)
//	errdrop  no statement calls that silently discard an error result
//	         (the CSV-write bug class)
//	dirlint  //ascoma: escape hatches audited: known names only, a
//	         reason on every one
//
// The zero-allocation event path, the stats serialization contract and
// the cancellation contract are tests, not analyzers: TestHotPathAllocs,
// TestStatsFieldsReachReport and TestRunEntryPointsCancel.
//
// The driver loads the module enclosing the working directory once with
// program.Load (nested modules excluded) and runs every analyzer on that
// load, in process. Findings in packages matched by the patterns are
// printed to stderr, one line each, sorted by file, line and column, with
// paths relative to the working directory; any finding exits 1. This is
// what make vet and CI run:
//
//	go build -o .bin/ascoma-vet ./cmd/ascoma-vet
//	.bin/ascoma-vet ./...
//	.bin/ascoma-vet -nondet -errdrop ./internal/machine/...
//	.bin/ascoma-vet help
package main

import (
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ascoma/internal/analysis"
	"ascoma/internal/analysis/dirlint"
	"ascoma/internal/analysis/errdrop"
	"ascoma/internal/analysis/nondet"
	"ascoma/internal/analysis/program"
)

var analyzers = []*analysis.Analyzer{
	nondet.Analyzer,
	errdrop.Analyzer,
	dirlint.Analyzer,
}

const progname = "ascoma-vet"

func main() {
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
		os.Exit(1)
	}
	os.Exit(run(wd, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole driver: it vets the module enclosing wd and returns the
// exit code — 0 clean, 1 findings or a load error, 2 a usage error.
func run(wd string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(progname, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: %s [-<analyzer>...] [package pattern...]\n", progname)
		fmt.Fprintf(stderr, "       %s help   # list analyzers\n", progname)
		fs.PrintDefaults()
	}
	selected := make(map[string]*bool)
	for _, a := range analyzers {
		selected[a.Name] = fs.Bool(a.Name, false, "enable only the "+a.Name+" analyzer (default: all)")
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var chosen []*analysis.Analyzer
	for _, a := range analyzers {
		if *selected[a.Name] {
			chosen = append(chosen, a)
		}
	}
	if chosen == nil {
		chosen = analyzers
	}

	patterns := fs.Args()
	if len(patterns) == 1 && patterns[0] == "help" {
		fmt.Fprintf(stdout, "%s is the AS-COMA repository's analyzer suite. Analyzers:\n\n", progname)
		for _, a := range chosen {
			fmt.Fprintf(stdout, "  %-16s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(stdout, "\nRun it from inside the module: %s ./...\n", progname)
		return 0
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	code, err := vet(wd, patterns, chosen, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", progname, err)
		return 1
	}
	return code
}

// vet loads the module enclosing wd, runs the analyzers, and prints the
// findings whose file lies in a package matched by the patterns.
func vet(wd string, patterns []string, analyzers []*analysis.Analyzer, out io.Writer) (int, error) {
	root, err := moduleRoot(wd)
	if err != nil {
		return 0, err
	}
	prog, err := program.Load(root)
	if err != nil {
		return 0, err
	}
	rel, err := filepath.Rel(root, wd)
	if err != nil {
		return 0, err
	}
	match, err := matchDirs(prog, filepath.ToSlash(rel), patterns)
	if err != nil {
		return 0, err
	}
	diags, err := program.RunAnalyzers(prog, analyzers)
	if err != nil {
		return 0, err
	}

	var kept []analysis.Diagnostic
	for _, d := range diags {
		if match[filepath.Dir(prog.Fset.Position(d.Pos).Filename)] {
			kept = append(kept, d)
		}
	}
	sortDiagnostics(prog.Fset, kept)
	for _, d := range kept {
		posn := prog.Fset.Position(d.Pos)
		if r, err := filepath.Rel(wd, posn.Filename); err == nil {
			posn.Filename = r
		}
		fmt.Fprintf(out, "%s: %s (%s)\n", posn, d.Message, d.Category)
	}
	if len(kept) > 0 {
		return 1, nil
	}
	return 0, nil
}

// moduleRoot walks up from dir to the nearest go.mod.
func moduleRoot(dir string) (string, error) {
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}

// matchDirs interprets go-style package patterns ("./...",
// "./internal/machine", "ascoma/internal/...") against the loaded packages
// and returns the set of matched package directories. Relative patterns
// are resolved against rel, the working directory's path below the module
// root. A pattern that matches no package is an error.
func matchDirs(prog *program.Program, rel string, patterns []string) (map[string]bool, error) {
	dirs := make(map[string]bool)
	for _, p := range patterns {
		subtree := false
		if rest, ok := strings.CutSuffix(p, "/..."); ok {
			subtree, p = true, rest
		} else if p == "..." {
			subtree, p = true, prog.ModulePath
		}
		if p == "." || strings.HasPrefix(p, "./") || strings.HasPrefix(p, "../") {
			p = filepath.ToSlash(filepath.Join(rel, p))
			if p == "." {
				p = prog.ModulePath
			} else {
				p = prog.ModulePath + "/" + p
			}
		}
		matched := false
		for _, pkg := range prog.Pkgs {
			if pkg.Path == p || subtree && strings.HasPrefix(pkg.Path, p+"/") {
				dirs[pkg.Dir] = true
				matched = true
			}
		}
		if !matched {
			return nil, fmt.Errorf("pattern %q matched no packages", p)
		}
	}
	return dirs, nil
}

// sortDiagnostics orders findings by file, line, column, analyzer, then
// message, so output is byte-stable run to run.
func sortDiagnostics(fset *token.FileSet, diags []analysis.Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if diags[i].Category != diags[j].Category {
			return diags[i].Category < diags[j].Category
		}
		return diags[i].Message < diags[j].Message
	})
}
