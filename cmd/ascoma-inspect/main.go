// Command ascoma-inspect decodes a binary flight-recorder trace written by
// ascoma-sim -trace or ascoma.WriteTrace, and renders it as a
// human-readable summary (with ASCII sparklines over the epoch series and,
// for ascoma-sim -refs traces, per-node reference counts by op) or as CSV
// for downstream analysis. Decoding is strict: a truncated or
// corrupted trace fails with a clear error instead of partial output.
//
// Usage:
//
//	ascoma-inspect summary run.trace           # overview + sparklines
//	ascoma-inspect events run.trace            # CSV: one row per event
//	ascoma-inspect epochs run.trace            # CSV: one row per (epoch, node)
//	ascoma-inspect run.trace                   # same as summary
package main

import (
	"fmt"
	"os"
	"sort"

	"ascoma/internal/obs"
	"ascoma/internal/workload"
)

func main() {
	args := os.Args[1:]
	mode := "summary"
	switch {
	case len(args) == 2:
		mode = args[0]
		args = args[1:]
	case len(args) != 1:
		usage()
	}
	rec, err := obs.ReadFile(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "ascoma-inspect:", err)
		os.Exit(1)
	}
	switch mode {
	case "summary":
		summary(args[0], rec)
	case "events":
		eventsCSV(rec)
	case "epochs":
		epochsCSV(rec)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: ascoma-inspect [summary|events|epochs] <trace-file>")
	os.Exit(2)
}

// summary renders the trace overview: event totals by kind and one
// sparkline per epoch probe (values summed across nodes per epoch).
func summary(path string, rec *obs.Recording) {
	fmt.Printf("trace: %s\n", path)

	if r := rec.Events; r != nil {
		fmt.Printf("events: %d stored of %d emitted (ring capacity %d)\n",
			r.Len(), r.Total(), r.Cap())
		evs := r.Events()
		if len(evs) > 0 {
			fmt.Printf("  span: cycle %d .. %d\n", evs[0].Time, evs[len(evs)-1].Time)
		}
		counts := make(map[obs.Kind]int)
		for _, ev := range evs {
			counts[ev.Kind]++
		}
		kinds := make([]obs.Kind, 0, len(counts))
		for k := range counts {
			kinds = append(kinds, k)
		}
		sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
		for _, k := range kinds {
			fmt.Printf("  %-14s %d\n", k, counts[k])
		}
	} else {
		fmt.Println("events: none recorded")
	}

	if t := rec.Refs; t != nil {
		fmt.Printf("refs: %q, %d nodes, %d home pages/node, %d private pages/node, %d placed pages\n",
			t.TraceName, t.NumNodes, t.HomePages, t.PrivPages, len(t.Placement))
		for n, refs := range t.Refs {
			var ops [workload.Unlock + 1]int
			for _, r := range refs {
				ops[r.Op]++
			}
			fmt.Printf("  node %d: %d refs (%d reads, %d writes, %d barriers, %d locks, %d unlocks)\n",
				n, len(refs), ops[workload.Read], ops[workload.Write], ops[workload.Barrier],
				ops[workload.Lock], ops[workload.Unlock])
		}
	} else {
		fmt.Println("refs: none recorded")
	}

	ep := rec.Epochs
	if ep == nil || ep.Len() == 0 {
		fmt.Println("epochs: none recorded")
		return
	}
	fmt.Printf("epochs: %d samples x %d nodes, every %d cycles\n",
		ep.Len(), ep.Nodes(), ep.Interval)
	const width = 60
	for p := obs.Probe(0); p < obs.NumProbes; p++ {
		series := make([]int64, ep.Len())
		lo, hi := int64(0), int64(0)
		for e := 0; e < ep.Len(); e++ {
			var sum int64
			for n := 0; n < ep.Nodes(); n++ {
				sum += ep.Value(p, e, n)
			}
			series[e] = sum
			if e == 0 || sum < lo {
				lo = sum
			}
			if e == 0 || sum > hi {
				hi = sum
			}
		}
		fmt.Printf("  %-14s [%d..%d] %s\n", p, lo, hi, obs.Sparkline(series, width))
	}
}

// eventsCSV writes every stored event as one CSV row. The A and B payload
// columns are kind-specific (see internal/obs: page index, free-pool level,
// threshold, shootdown reason, ...).
func eventsCSV(rec *obs.Recording) {
	fmt.Println("cycle,node,kind,a,b")
	if rec.Events == nil {
		return
	}
	for _, ev := range rec.Events.Events() {
		fmt.Printf("%d,%d,%s,%d,%d\n", ev.Time, ev.Node, ev.Kind, ev.A, ev.B)
	}
}

// epochsCSV writes one row per (epoch, node) with every probe as a column.
func epochsCSV(rec *obs.Recording) {
	fmt.Print("cycle,node")
	for p := obs.Probe(0); p < obs.NumProbes; p++ {
		fmt.Printf(",%s", p)
	}
	fmt.Println()
	ep := rec.Epochs
	if ep == nil {
		return
	}
	for e := 0; e < ep.Len(); e++ {
		for n := 0; n < ep.Nodes(); n++ {
			fmt.Printf("%d,%d", ep.Time(e), n)
			for p := obs.Probe(0); p < obs.NumProbes; p++ {
				fmt.Printf(",%d", ep.Value(p, e, n))
			}
			fmt.Println()
		}
	}
}
