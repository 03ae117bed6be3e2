// Package program loads every package of the repository in one shot and
// runs the analyzer suite on that one load: each analyzer gets a Pass per
// loaded package it applies to.
//
// Repo packages are parsed from source, topologically sorted by their
// intra-module imports, and type-checked against a shared source-importer
// for the standard library, so loading works offline with nothing but the
// toolchain. This is the suite's only package loader: cmd/ascoma-vet and
// the analysistest corpora both load through it.
package program

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ascoma/internal/analysis"
)

// A Package is one type-checked repo package.
type Package struct {
	Path  string // import path
	Dir   string // absolute directory
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// A Program holds every package of one module (or one test corpus tree)
// plus the line index of their //ascoma: directives.
type Program struct {
	Fset       *token.FileSet
	Pkgs       []*Package // topological order (dependencies first)
	ModulePath string

	directives *analysis.DirectiveIndex
}

// Load loads the module rooted at root (the directory containing go.mod):
// every package directory is parsed (testdata, vendor, dot/underscore and
// tool directories and nested modules are skipped; _test.go files are
// excluded) and type-checked.
func Load(root string) (*Program, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modpath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	return load(root, modpath)
}

// LoadDir loads a test-corpus tree: the directory itself and each
// subdirectory holding .go files becomes one package, with import paths
// rooted at prefix (so a fixture package in dir/state imports as
// "prefix/state"). Used by analysistest to load its corpora.
func LoadDir(root, prefix string) (*Program, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	return load(root, prefix)
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", fmt.Errorf("program: not a module root: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("program: no module line in %s", gomod)
}

func load(root, modpath string) (*Program, error) {
	p := &Program{Fset: token.NewFileSet(), ModulePath: modpath}

	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := p.parseDir(root, modpath, dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("program: no packages under %s", root)
	}

	ordered, err := topoSort(pkgs, modpath)
	if err != nil {
		return nil, err
	}

	// Type-check in dependency order so intra-module imports resolve from
	// the packages checked so far; everything else comes from the shared
	// stdlib source importer.
	repo := make(map[string]*types.Package, len(ordered))
	std := importer.ForCompiler(p.Fset, "source", nil)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if tp, ok := repo[path]; ok {
			return tp, nil
		}
		return std.Import(path)
	})
	for _, pkg := range ordered {
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Implicits:  make(map[ast.Node]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Scopes:     make(map[ast.Node]*types.Scope),
		}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(pkg.Path, p.Fset, pkg.Files, info)
		if err != nil {
			return nil, fmt.Errorf("program: type-checking %s: %v", pkg.Path, err)
		}
		pkg.Pkg = tp
		pkg.Info = info
		repo[pkg.Path] = tp
	}
	p.Pkgs = ordered

	var files []*ast.File
	for _, pkg := range p.Pkgs {
		files = append(files, pkg.Files...)
	}
	p.directives = analysis.IndexDirectives(p.Fset, files)
	return p, nil
}

// packageDirs enumerates candidate package directories under root in
// deterministic (lexical) order. A subdirectory holding a go.mod is another
// module and is skipped with everything below it, as go vet ./... does.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root {
			if name == "testdata" || name == "vendor" || name == ".bin" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		dirs = append(dirs, path)
		return nil
	})
	return dirs, err
}

// parseDir parses the non-test Go files of one directory, returning nil if
// the directory holds no production Go files.
func (p *Program) parseDir(root, modpath, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(p.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, err
	}
	path := modpath
	if rel != "." {
		path = modpath + "/" + filepath.ToSlash(rel)
	}
	return &Package{Path: path, Dir: dir, Files: files}, nil
}

// topoSort orders packages dependencies-first by their intra-module
// imports.
func topoSort(pkgs []*Package, modpath string) ([]*Package, error) {
	byPath := make(map[string]*Package, len(pkgs))
	for _, pkg := range pkgs {
		byPath[pkg.Path] = pkg
	}
	var (
		ordered []*Package
		state   = make(map[*Package]int) // 0 unvisited, 1 visiting, 2 done
		visit   func(*Package) error
	)
	visit = func(pkg *Package) error {
		switch state[pkg] {
		case 1:
			return fmt.Errorf("program: import cycle through %s", pkg.Path)
		case 2:
			return nil
		}
		state[pkg] = 1
		for _, dep := range moduleImports(pkg, modpath) {
			if d, ok := byPath[dep]; ok {
				if err := visit(d); err != nil {
					return err
				}
			}
		}
		state[pkg] = 2
		ordered = append(ordered, pkg)
		return nil
	}
	for _, pkg := range pkgs {
		if err := visit(pkg); err != nil {
			return nil, err
		}
	}
	return ordered, nil
}

// moduleImports returns the sorted set of intra-module import paths of pkg.
func moduleImports(pkg *Package, modpath string) []string {
	seen := make(map[string]bool)
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == modpath || strings.HasPrefix(path, modpath+"/") {
				seen[path] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for path := range seen {
		out = append(out, path)
	}
	sort.Strings(out)
	return out
}

// RunAnalyzers applies analyzers to an already-loaded program and returns
// the collected diagnostics in report order; drivers sort before printing.
// Each analyzer runs on every package it AppliesTo. It is the only place a
// Pass is built.
func RunAnalyzers(prog *Program, analyzers []*analysis.Analyzer) ([]analysis.Diagnostic, error) {
	var diags []analysis.Diagnostic
	report := func(d analysis.Diagnostic) { diags = append(diags, d) }
	for _, pkg := range prog.Pkgs {
		for _, a := range analyzers {
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
	return diags, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
