package program_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ascoma/internal/analysis/program"
)

func loadFixture(t *testing.T, dir, prefix string) *program.Program {
	t.Helper()
	prog, err := program.LoadDir(dir, prefix)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func findFunc(t *testing.T, prog *program.Program, name string) *program.Func {
	t.Helper()
	for _, f := range prog.Funcs() {
		if f.Name() == name {
			return f
		}
	}
	t.Fatalf("function %q not in program", name)
	return nil
}

// TestInterfaceDispatch checks the conservative interface resolution: a
// call through an interface gets an edge to every implementing method in
// the program.
func TestInterfaceDispatch(t *testing.T) {
	prog := loadFixture(t, "../testdata/src/progengine", "progengine")
	dispatch := findFunc(t, prog, "progengine.dispatch")

	callees := make(map[string]bool)
	for _, e := range dispatch.Edges {
		if e.Callee != nil {
			callees[e.Callee.Name()] = true
		}
	}
	for _, want := range []string{"(progengine.impl1).Do", "(progengine.impl2).Do"} {
		if !callees[want] {
			t.Errorf("dispatch edges missing %s; have %v", want, callees)
		}
	}
}

// TestFuncValueThroughField checks flow propagation: a closure stored in a
// struct field in one function is a callee of the call through that field
// in another.
func TestFuncValueThroughField(t *testing.T) {
	prog := loadFixture(t, "../testdata/src/progengine", "progengine")
	indirect := findFunc(t, prog, "progengine.indirect")

	found := false
	for _, e := range indirect.Edges {
		if e.Callee != nil && strings.Contains(e.Callee.Name(), "wire·func") {
			found = true
		}
	}
	if !found {
		t.Errorf("indirect has no edge to the closure wired in wire(); edges: %v", indirect.Edges)
	}
}

// TestReachabilityAndPath checks BFS reachability from directive roots and
// the rendered call path used in diagnostics.
func TestReachabilityAndPath(t *testing.T) {
	prog := loadFixture(t, "../testdata/src/progengine", "progengine")
	roots := prog.FuncsWithDirective("hotpath")
	if len(roots) != 1 || roots[0].Name() != "progengine.root" {
		t.Fatalf("hotpath roots = %v, want [progengine.root]", roots)
	}

	reach := prog.Reachable(roots, func(program.Edge) bool { return false })
	names := make(map[string]bool)
	for _, f := range reach.Funcs {
		names[f.Name()] = true
	}
	for _, want := range []string{"progengine.root", "progengine.dispatch", "(progengine.impl1).Do", "(progengine.impl2).Do"} {
		if !names[want] {
			t.Errorf("reachable set missing %s", want)
		}
	}
	if names["progengine.helper"] {
		t.Error("helper is reachable from root but should not be: nothing on the root path calls it")
	}

	d := findFunc(t, prog, "progengine.dispatch")
	if got := reach.Path(d); got != "progengine.root → progengine.dispatch" {
		t.Errorf("Path(dispatch) = %q", got)
	}
}

// TestWorkerThunkReachability checks the queue-worker pattern end to end
// on the thunk corpus: the closure handed to the queue at construction is
// reachable from the queue's loop through the func-typed field.
func TestWorkerThunkReachability(t *testing.T) {
	prog := loadFixture(t, "../testdata/src/thunk", "thunk")
	roots := prog.FuncsWithDirective("hotpath")

	reach := prog.Reachable(roots, func(program.Edge) bool { return false })
	var thunk *program.Func
	for _, f := range reach.Funcs {
		if strings.Contains(f.Name(), "build·func") {
			thunk = f
		}
	}
	if thunk == nil {
		t.Fatal("closure from build() not reachable from the hotpath root")
	}
	path := reach.Path(thunk)
	if !strings.Contains(path, "loop") {
		t.Errorf("Path(thunk) = %q, want it to route through the queue's loop", path)
	}
}

// TestLoadSkipsNestedModule checks that Load stops at a module boundary: a
// subdirectory holding its own go.mod is another module and is not loaded
// as a package of this one.
func TestLoadSkipsNestedModule(t *testing.T) {
	root := t.TempDir()
	writeFile(t, root, "go.mod", "module m\n\ngo 1.22\n")
	writeFile(t, root, "m.go", "package m\n")
	writeFile(t, root, "sub/sub.go", "package sub\n")
	writeFile(t, root, "nested/go.mod", "module n\n\ngo 1.22\n")
	writeFile(t, root, "nested/n.go", "package n\n")
	writeFile(t, root, "nested/inner/inner.go", "package inner\n")

	prog, err := program.Load(root)
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, pkg := range prog.Pkgs {
		paths = append(paths, pkg.Path)
	}
	if got := strings.Join(paths, " "); got != "m m/sub" {
		t.Errorf("loaded packages %q, want \"m m/sub\"", got)
	}
}

func writeFile(t *testing.T, root, name, content string) {
	t.Helper()
	path := filepath.Join(root, name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
