package program_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ascoma/internal/analysis/program"
)

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
