package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixture is a module named like the repository, so every analyzer's
// package scope applies, with one finding per analyzer. It imports nothing,
// so loading it type-checks no standard-library source. The nested
// perfbench module holds a finding the driver must not see.
var fixture = map[string]string{
	"go.mod": "module ascoma\n\ngo 1.22\n",
	"internal/sim/sim.go": `package sim

// Sum ranges over a map in a deterministic package.
func Sum(m map[int]int) (s int) {
	for _, v := range m {
		s += v
	}
	return s
}

//ascoma:allow-nondt
var typo int
`,
	"internal/x/x.go": `package x

func remove() error { return nil }

// Clean drops remove's error.
func Clean() { remove() }
`,
	"perfbench/go.mod": "module ascoma/perfbench\n\ngo 1.22\n",
	"perfbench/p.go": `package perfbench

func remove() error { return nil }

func clean() { remove() }
`,
}

var clean = map[string]string{
	"go.mod":              "module ascoma\n\ngo 1.22\n",
	"internal/sim/sim.go": "package sim\n\n// Next advances the clock.\nfunc Next(clock int64) int64 { return clock + 1 }\n",
}

var findings = []string{
	"internal/sim/sim.go:5:2: map iteration order is randomized: sort the keys, or mark the loop //ascoma:allow-nondet <reason> if its effect is order-independent (nondet)",
	"internal/sim/sim.go:11:1: unknown directive //ascoma:allow-nondt (dirlint)",
	"internal/x/x.go:6:16: result of remove includes an error that is discarded; handle it or write `_ =` / //ascoma:allow-errdrop <reason> (errdrop)",
}

func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, content := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestDriver(t *testing.T) {
	root := writeModule(t, fixture)
	for _, tc := range []struct {
		name string
		wd   string
		args []string
		code int
		want []string
	}{
		{"all", root, []string{"./..."}, 1, findings},
		{"default pattern", root, nil, 1, findings},
		{"one analyzer", root, []string{"-nondet"}, 1, findings[:1]},
		{"two analyzers", root, []string{"-errdrop", "-dirlint", "./..."}, 1, findings[1:]},
		{"package pattern", root, []string{"./internal/x/..."}, 1, findings[2:]},
		{"import path pattern", root, []string{"ascoma/internal/sim"}, 1, findings[:2]},
		{"relative to working directory", filepath.Join(root, "internal"), []string{"./x"}, 1, []string{"x/" + strings.TrimPrefix(findings[2], "internal/x/")}},
		{"clean package", root, []string{"-errdrop", "./internal/sim"}, 0, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.wd, tc.args, &stdout, &stderr)
			if code != tc.code {
				t.Errorf("exit %d, want %d; stderr:\n%s", code, tc.code, stderr.String())
			}
			want := strings.Join(tc.want, "\n")
			if want != "" {
				want += "\n"
			}
			if got := stderr.String(); got != want {
				t.Errorf("findings:\n%s\nwant:\n%s", got, want)
			}
			if stdout.Len() != 0 {
				t.Errorf("unexpected stdout: %s", stdout.String())
			}
		})
	}
}

func TestDriverCleanModule(t *testing.T) {
	root := writeModule(t, clean)
	var stdout, stderr bytes.Buffer
	if code := run(root, []string{"./..."}, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
		t.Errorf("exit %d, stderr %q; want 0 and no output", code, stderr.String())
	}
}

func TestDriverHelp(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(t.TempDir(), []string{"help"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
	}
	for _, name := range []string{"nondet", "errdrop", "dirlint"} {
		if !strings.Contains(stdout.String(), "\n  "+name+" ") {
			t.Errorf("help does not list %s:\n%s", name, stdout.String())
		}
	}
}

// TestDriverRejects pins the arguments the driver refuses: the go vet
// -vettool protocol's flags and unit configs, and unknown flags.
func TestDriverRejects(t *testing.T) {
	root := writeModule(t, clean)
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-V=full"}, 2},
		{[]string{"-flags"}, 2},
		{[]string{"-nosuch"}, 2},
		{[]string{"unit.cfg"}, 1},
		{[]string{"./nosuch/..."}, 1},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(root, tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("%v: exit %d, want %d; stderr:\n%s", tc.args, code, tc.code, stderr.String())
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run(t.TempDir(), []string{"./..."}, &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), "no go.mod") {
		t.Errorf("outside a module: exit %d, stderr %q; want 1 and a go.mod error", code, stderr.String())
	}
}
