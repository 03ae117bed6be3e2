// Command ascoma-sim runs one simulation of a (architecture, workload,
// memory pressure) configuration and prints the execution-time breakdown
// and miss classification the paper's figures are built from.
//
// Usage:
//
//	ascoma-sim -arch ascoma -workload radix -pressure 70 [-scale 4] [-v]
//	ascoma-sim -workload radix -scale 8 -trace radix.trace -refs   # save the reference streams
//	ascoma-sim -replay radix.trace -arch rnuma -pressure 90         # re-run them bit-identically
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"ascoma"
	"ascoma/internal/obs"
	"ascoma/internal/prof"
	"ascoma/internal/stats"
	"ascoma/internal/workload"
)

func main() {
	arch := flag.String("arch", "ascoma", "architecture: ccnuma, scoma, rnuma, vcnuma, ascoma, mignuma")
	wl := flag.String("workload", "radix", "workload: "+strings.Join(ascoma.Workloads(), ", "))
	pressure := flag.Int("pressure", 50, "memory pressure in percent (1-99)")
	scale := flag.Int("scale", 1, "problem-size divisor (1 = paper scale)")
	verbose := flag.Bool("v", false, "print per-node statistics")
	jsonOut := flag.Bool("json", false, "emit the full statistics as JSON")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	trace := flag.String("trace", "", "record a flight-recorder trace to this file (inspect with ascoma-inspect)")
	epoch := flag.Int64("epoch", 0, "with -trace, sample per-node epoch probes every N cycles (0 = events only)")
	quantum := flag.Int64("quantum", 0, "cycles per node timeslice (0 = the 100-cycle default; changes simulated results)")
	tiers := flag.String("tiers", "", "memory tiers as capPct:readCycles:writeCycles,... fastest first (empty = one tier at the local memory latency)")
	pagePolicy := flag.String("pagepolicy", "", "DRAM row-buffer page policy: open, closed, hybrid (empty = off)")
	refs := flag.Bool("refs", false, "with -trace, also store the run's reference streams in the trace file (replay with -replay)")
	replay := flag.String("replay", "", "simulate the reference streams stored in this trace file instead of -workload/-scale")
	flag.Parse()

	a, err := ascoma.ParseArch(*arch)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	tierSpecs, err := ascoma.ParseTiers(*tiers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var gen ascoma.Generator
	if *replay != "" {
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "workload" || f.Name == "scale" {
				fmt.Fprintf(os.Stderr, "ascoma-sim: -%s has no effect with -replay\n", f.Name)
				os.Exit(2)
			}
		})
		src, err := obs.ReadFile(*replay)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ascoma-sim: -replay %s: %v\n", *replay, err)
			os.Exit(1)
		}
		if src.Refs == nil {
			fmt.Fprintf(os.Stderr, "ascoma-sim: %s holds no reference streams (record them with -refs)\n", *replay)
			os.Exit(1)
		}
		gen = src.Refs
	} else if gen, err = workload.New(*wl, max(*scale, 1)); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var rec *ascoma.Recording
	if *trace != "" {
		rec = ascoma.NewRecording(0, *epoch)
		if *refs {
			rec.Refs = workload.Record(gen)
		}
	} else if *epoch != 0 || *refs {
		fmt.Fprintln(os.Stderr, "ascoma-sim: -epoch and -refs require -trace")
		os.Exit(2)
	}
	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	res, err := ascoma.RunGenerator(ascoma.Config{
		Arch:       a,
		Pressure:   *pressure,
		Quantum:    *quantum,
		Obs:        rec,
		Tiers:      tierSpecs,
		PagePolicy: *pagePolicy,
	}, gen)
	if perr := stopProf(); perr != nil {
		fmt.Fprintln(os.Stderr, perr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if rec != nil {
		if err := ascoma.WriteTrace(*trace, rec); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "ascoma-sim: wrote %s (%d events recorded, %d epochs)\n",
			*trace, rec.Events.Total(), epochLen(rec))
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(stats.Report(res.Machine)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	fmt.Print(res.Report())

	if *verbose {
		t := &stats.Table{Header: []string{"node", "finish", "U-SH-MEM", "K-BASE", "K-OVERHD", "U-INSTR", "U-LC-MEM", "SYNC",
			"HOME", "SCOMA", "RAC", "COLD", "CONF/CAPC", "upgrades", "downgrades", "faults"}}
		for i := range res.Nodes {
			n := &res.Nodes[i]
			t.AddRow(i, n.FinishTime,
				n.Time[stats.UShMem], n.Time[stats.KBase], n.Time[stats.KOverhead],
				n.Time[stats.UInstr], n.Time[stats.ULcMem], n.Time[stats.Sync],
				n.Misses[stats.Home], n.Misses[stats.SComa], n.Misses[stats.RAC],
				n.Misses[stats.Cold], n.Misses[stats.ConfCapc],
				n.Upgrades, n.Downgrades, n.PageFaults)
		}
		fmt.Print(t.String())
	}
}

func epochLen(rec *ascoma.Recording) int {
	if rec.Epochs == nil {
		return 0
	}
	return rec.Epochs.Len()
}
