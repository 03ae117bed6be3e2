// Command perfbench is the repository's benchmark: it runs one named
// workload against the simulator's packages for a fixed time, checks every
// simulated output against pinned checksums, and prints its metrics — the
// end-to-end ones untraced, the per-layer ones with --trace 1. See
// README.md for the workloads and metrics, and run it from the repository
// root through run.sh:
//
//	bash perfbench/run.sh --workload thrash --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"ascoma"
)

// setupSamples is how many cold set-ups a run times: its own plus this
// many minus one in fresh child processes (the workload and stream caches
// are process-wide, so only a new process sets up cold). setup_s is their
// median. Untraced, the children run between passes, spread evenly over
// the timed phase, so that they sample the host over the whole run rather
// than one moment of it: its speed drifts over seconds.
const setupSamples = 31

// busyThreads is the most OS threads the benchmark keeps busy: the Runner
// pool, the parallel core and the serve clients are all sized to it.
const busyThreads = 2

// Workload configurations. figures runs at the golden matrix's scale so
// every overlapping cell is checked against testdata/golden_stats.json.
var (
	thrashCfg   = ascoma.Config{Arch: ascoma.ASCOMA, Workload: "radix", Pressure: 90, Scale: 4}
	residentCfg = ascoma.Config{Arch: ascoma.ASCOMA, Workload: "resident", Pressure: 30, Scale: 1,
		Quantum: 1000, Cores: busyThreads}
)

const figuresScale = goldenScale

func newWorkload(name string, seed uint64, p pins) (load, error) {
	switch name {
	case "figures":
		return newFigures(figuresScale, seed, p), nil
	case "thrash":
		return &runs{cfg: thrashCfg, perPass: 4, pins: p}, nil
	case "resident":
		return &runs{cfg: residentCfg, perPass: 16, pins: p}, nil
	case "serve":
		return newServeLoad(seed, p), nil
	}
	return nil, fmt.Errorf("unknown workload %q (figures, thrash, resident, serve)", name)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload to run: figures, thrash, resident or serve")
	seed := flag.Uint64("seed", 1, "seed for the workload's generated inputs")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics; 1 = traced run printing per-layer metrics")
	setupOnly := flag.Bool("setup-only", false, "time one cold set-up and print it (used for setup_s samples)")
	pin := flag.Bool("pin", false, "rewrite perfbench/pins.json from the current simulator and exit")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, not %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	runtime.GOMAXPROCS(busyThreads)

	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	if *pin {
		return pinAll(golden)
	}
	p, err := loadPins()
	if err != nil {
		return err
	}
	if err := p.agreeWithGolden(golden); err != nil {
		return err
	}
	w, err := newWorkload(*name, *seed, p)
	if err != nil {
		return err
	}
	defer w.close()

	if *setupOnly {
		d, err := timeSetup(w, nil)
		if err != nil {
			return err
		}
		fmt.Printf("setup_s=%v\n", d)
		return nil
	}

	setupSpans := newSpans()
	first, err := timeSetup(w, setupSpans)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	setups := []float64{first}
	if err := w.prepare(); err != nil {
		return fmt.Errorf("prepare: %w", err)
	}

	dur := time.Duration(*seconds * float64(time.Second))
	out := result{Report: "perfbench", Workload: *name, Env: environment(*seed, *trace == 1)}
	var base, final *phase
	if *trace == 0 {
		final, err = measure(w, dur, false, func(done float64) error {
			return childSetups(&setups, 1+int(done*(setupSamples-1)), *name, *seed)
		})
		if err != nil {
			return err
		}
	} else {
		if err := childSetups(&setups, setupSamples, *name, *seed); err != nil {
			return err
		}
		base, err = measure(w, dur/2, false, nil)
		if err != nil {
			return err
		}
		final, err = measure(w, dur/2, true, nil)
		if err != nil {
			return err
		}
		out.PerLayer, err = perLayer(setupSpans, base, final)
		if err != nil {
			return err
		}
		out.Spans = final.sp.byName()
	}
	out.SetupSamples = setups
	untraced := final
	if base != nil {
		untraced = base
	}
	out.EndToEnd, out.Tails = endToEnd(setups, untraced)
	out.Passes, out.Ops, out.PassSeconds = len(final.passes), len(final.ops), toSeconds(final.passes)
	out.Attempted, out.Failed = final.counts()
	if base != nil {
		a, f := base.counts()
		out.Attempted, out.Failed = out.Attempted+a, out.Failed+f
	}

	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return printContract(out, *trace == 1)
}

// result is the full record of one run, printed as one JSON line before
// the summary line: the environment, sample counts, every pass time,
// every end-to-end metric (tails and failed_ratio included) and, traced,
// every per-layer metric with the traced spans' total and self time per
// name.
type result struct {
	Report       string                `json:"report"`
	Workload     string                `json:"workload"`
	Env          env                   `json:"env"`
	SetupSamples []float64             `json:"setup_samples_s"`
	Passes       int                   `json:"passes"`
	PassSeconds  []float64             `json:"pass_s"`
	Ops          int                   `json:"ops"`
	Attempted    int64                 `json:"attempted"`
	Failed       int64                 `json:"failed"`
	EndToEnd     map[string]metric     `json:"end_to_end"`
	Tails        map[string]metric     `json:"tails"`
	PerLayer     map[string]metric     `json:"per_layer,omitempty"`
	Spans        map[string]spanTotals `json:"spans,omitempty"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"` // samples behind a percentile
}

// printContract prints the summary line: correctness, operation counts
// and the metrics of the mode — end-to-end untraced, per-layer traced.
func printContract(r result, traced bool) error {
	defs, src := endToEndDefs, r.EndToEnd
	if traced {
		defs, src = perLayerDefs(), r.PerLayer
	}
	ms := make(map[string]metric, len(defs))
	for _, d := range defs {
		m, ok := src[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not computed", d.name)
		}
		ms[d.name] = metric{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Failed == 0 && r.Attempted > 0, r.Attempted, r.Failed, ms})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// timeSetup times one cold set-up of w in seconds.
func timeSetup(w load, sp *spans) (float64, error) {
	start := time.Now()
	err := w.setup(sp)
	return time.Since(start).Seconds(), err
}

// childSetups appends cold set-up times to *setups, one fresh child
// process after another, until it holds n (at most setupSamples).
func childSetups(setups *[]float64, n int, name string, seed uint64) error {
	for len(*setups) < min(n, setupSamples) {
		d, err := childSetup(name, seed)
		if err != nil {
			return err
		}
		*setups = append(*setups, d)
	}
	return nil
}

// childSetup times a cold set-up in a fresh process running this binary,
// and waits for it to exit.
func childSetup(name string, seed uint64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "--setup-only", "--workload", name, "--seed", strconv.FormatUint(seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("setup child: %w", err)
	}
	v, ok := strings.CutPrefix(strings.TrimSpace(string(out)), "setup_s=")
	if !ok {
		return 0, fmt.Errorf("setup child printed %q", out)
	}
	return strconv.ParseFloat(v, 64)
}

// env is the environment block recorded with every result.
type env struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	Traced     bool   `json:"traced"`
}

func environment(seed uint64, traced bool) env {
	return env{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Seed:       seed,
		Traced:     traced,
	}
}

// cpuModel reads the processor name the kernel reports.
func cpuModel() string {
	blob, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	sc := bufio.NewScanner(bytes.NewReader(blob))
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build
// happened inside a git checkout.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
