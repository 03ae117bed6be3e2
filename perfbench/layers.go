package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// layerOf is the one package→layer table: every host CPU sample is
// charged to the layer of the package whose function was executing (its
// self time). Packages missing here fall through to stdlib, gc or other in
// groupOf, so unattributed time is visible as cpu.other instead of
// disappearing.
var layerOf = map[string]string{
	"ascoma":                    "machine", // thin Run entry point over the machine
	"ascoma/internal/machine":   "machine",
	"ascoma/internal/par":       "machine", // the parallel core's work queue
	"ascoma/internal/sim":       "sim",
	"ascoma/internal/cache":     "cache",
	"ascoma/internal/directory": "directory",
	"ascoma/internal/network":   "network",
	"ascoma/internal/bus":       "bus",
	"ascoma/internal/mem":       "mem",
	"ascoma/internal/vm":        "vm",
	"ascoma/internal/core":      "core",
	"ascoma/internal/dense":     "dense",
	"ascoma/internal/addr":      "dense",
	"ascoma/internal/workload":  "workload",
	"ascoma/internal/runcache":  "runcache",
	"ascoma/internal/report":    "report",
	"ascoma/internal/stats":     "report", // stats tables and JSON reports
	"ascoma/internal/estimate":  "estimate",
	"ascoma/internal/model":     "estimate",
	"ascoma/internal/serve":     "serve",
	"ascoma/internal/jobs":      "serve",
	"ascoma/internal/obs":       "serve", // the service's metrics registry
}

// cpuGroups lists every group a CPU share is reported for, in output
// order; the shares of one profile sum to 100.
var cpuGroups = []string{
	"machine", "sim", "cache", "directory", "network", "bus", "mem", "vm",
	"core", "dense", "workload", "runcache", "report", "estimate", "serve",
	"stdlib", "gc", "other",
}

// gcPrefixes are runtime function-name prefixes (receiver type first)
// that belong to the garbage collector rather than to allocation or scheduling.
var gcPrefixes = []string{
	"gc", "scan", "mark", "greyobject", "findObject", "sweep", "bgsweep",
	"bgscavenge", "scavenge", "wbBuf", "bulkBarrier", "typePointers",
}

// groupOf maps a symbolized function name, as it appears in a Go CPU
// profile, to its reporting group.
func groupOf(fn string) string {
	pkg := funcPackage(fn)
	if g, ok := layerOf[pkg]; ok {
		return g
	}
	if pkg == "runtime" {
		// "runtime.(*gcWork).tryGet" is matched as "gcWork.tryGet".
		name := strings.NewReplacer("(*", "", "(", "", ")", "").Replace(strings.TrimPrefix(fn, "runtime."))
		for _, p := range gcPrefixes {
			if strings.HasPrefix(name, p) {
				return "gc"
			}
		}
		return "stdlib"
	}
	if isStdlib(pkg) {
		return "stdlib"
	}
	return "other"
}

// funcPackage extracts the import path from a function symbol such as
// "ascoma/internal/machine.(*Machine).runNode". Type-parameter lists are
// cut first: they may contain other import paths.
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// isStdlib reports whether an import path belongs to the standard library:
// its first element has no dot and it is not this module or the
// benchmark's own main package.
func isStdlib(pkg string) bool {
	if pkg == "" || pkg == "main" || strings.Contains(pkg, ":") ||
		pkg == "ascoma" || strings.HasPrefix(pkg, "ascoma/") {
		return false
	}
	first, _, _ := strings.Cut(pkg, "/")
	return !strings.Contains(first, ".")
}

// cpuShares returns each group's percentage of the sampled CPU time in a
// runtime/pprof CPU profile, by the self (flat) time of every function. The
// profile is read by the toolchain's own `go tool pprof -top`, through a
// temporary file in os.TempDir (run.sh points it into .bench_build).
func cpuShares(profile []byte) (map[string]float64, error) {
	f, err := os.CreateTemp("", "perfbench-*.pprof")
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	defer os.Remove(f.Name())
	_, err = f.Write(profile)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=0", "-nodefraction=0", "-edgefraction=0", "-unit=ns", f.Name())
	cmd.Stderr = &stderr
	top, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	self, err := parseTop(top)
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	out := make(map[string]float64, len(cpuGroups))
	for _, g := range cpuGroups {
		out[g] = 0
	}
	var total float64
	for _, v := range self {
		total += v
	}
	if total == 0 {
		return out, nil
	}
	for fn, v := range self {
		out[groupOf(fn)] += 100 * v / total
	}
	return out, nil
}

// parseTop reads the flat time, in nanoseconds, of every function in the
// output of `go tool pprof -top -unit=ns`. Rows follow the column header
// and read "flat flat% sum% cum cum% name", where the name may contain
// spaces and ends in " (inline)" for inlined frames.
func parseTop(top []byte) (map[string]float64, error) {
	self := map[string]float64{}
	header := false
	sc := bufio.NewScanner(bytes.NewReader(top))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !header {
			header = strings.HasPrefix(line, "flat ")
			continue
		}
		if line == "" {
			continue
		}
		cols := line
		var fields []string
		for len(fields) < 5 {
			f, rest, ok := strings.Cut(cols, " ")
			if !ok {
				return nil, fmt.Errorf("short row %q", line)
			}
			fields = append(fields, f)
			cols = strings.TrimLeft(rest, " ")
		}
		name := strings.TrimSuffix(cols, " (inline)")
		flat, err := strconv.ParseFloat(strings.TrimSuffix(fields[0], "ns"), 64)
		if err != nil {
			return nil, fmt.Errorf("row %q: %w", line, err)
		}
		self[name] += flat
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !header {
		return nil, fmt.Errorf("no table in output %q", top)
	}
	return self, nil
}
