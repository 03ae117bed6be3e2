// Command tables regenerates Tables 1-4 of the paper: the analytic remote-
// overhead model (Table 1), the storage cost and complexity comparison
// (Table 2), the configured cache and network characteristics (Table 3),
// and the measured minimum access latencies of the simulated memory
// hierarchy (Table 4).
//
// Usage:
//
//	tables           # all four tables
//	tables -table 4  # just the latency table
package main

import (
	"flag"
	"fmt"

	"ascoma"
	"ascoma/internal/model"
	"ascoma/internal/params"
	"ascoma/internal/stats"
)

func main() {
	table := flag.Int("table", 0, "table to print (1-4; 0 = all)")
	flag.Parse()

	if *table == 0 || *table == 1 {
		table1()
	}
	if *table == 0 || *table == 2 {
		table2()
	}
	if *table == 0 || *table == 3 {
		table3()
	}
	if *table == 0 || *table == 4 {
		table4()
	}
}

// table1 prints the remote-memory-overhead model of each architecture and
// evaluates its terms on a live radix run through internal/model, the one
// implementation of the formula, demonstrating that the measured
// statistics plug into the paper's formulas.
func table1() {
	fmt.Println("== Table 1: Remote Memory Overhead of Various Models ==")
	t := &stats.Table{Header: []string{"model", "remote overhead", "performance factors"}}
	t.AddRow("CC-NUMA", "(Nremote x Tremote)", "network speed")
	t.AddRow("S-COMA", "(Npagecache x Tpagecache) + (Ncold x Tremote) + Toverhead", "network speed, software overhead")
	t.AddRow("Hybrid", "(Npagecache x Tpagecache) + (Nremote x Tremote) + (Ncold x Tremote) + Toverhead", "network speed, software overhead")
	fmt.Print(t.String())

	fmt.Println("\n-- model terms measured on radix at 70% pressure (scale 4) --")
	p := ascoma.DefaultParams()
	tl := &stats.Table{Header: []string{"arch", "Npagecache", "Nremote+Ncold", "Ncold(induced)", "Nrac", "Toverhead(cycles)", "overhead model (cycles)"}}
	for _, a := range []ascoma.Arch{ascoma.CCNUMA, ascoma.SCOMA, ascoma.ASCOMA, ascoma.VCNUMA, ascoma.RNUMA} {
		res, err := ascoma.Run(ascoma.Config{Arch: a, Workload: "radix", Pressure: 70, Scale: 4})
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		t := model.Extract(res.Machine, &p)
		tl.AddRow(a, t.Npagecache, t.RemoteMisses(), t.NcoldInduced, t.Nrac, t.Toverhead, t.Overhead())
	}
	fmt.Print(tl.String())
	fmt.Println("overhead model = the Hybrid formula + (Nrac x Trac): RAC hits would otherwise be remote misses")
	fmt.Println()
}

// table2 prints the storage cost and complexity comparison, with the bit
// counts computed from the simulator's actual data structures.
func table2() {
	fmt.Println("== Table 2: Cost and Complexity of Various Models ==")
	t := &stats.Table{Header: []string{"model", "storage cost", "complexity"}}
	t.AddRow("CC-NUMA", "none", "none")
	t.AddRow("S-COMA",
		fmt.Sprintf("page cache state: 1 valid bit/block (%d/page) + ~32 bits/page map", params.BlocksPerPage),
		"page-cache lookup; local<->remote page map; page daemon + VM kernel")
	t.AddRow("Hybrid",
		fmt.Sprintf("S-COMA state + refetch count: counter/page/node (%d counters/page on %d nodes)", params.BlocksPerPage, ascoma.DefaultParams().Nodes),
		"S-COMA complexity + refetch counter, comparator and interrupt generator")
	fmt.Print(t.String())
	fmt.Println()
}

// table3 prints the configured cache and network characteristics.
func table3() {
	p := ascoma.DefaultParams()
	fmt.Println("== Table 3: Cache and Network Characteristics ==")
	t := &stats.Table{Header: []string{"component", "characteristics"}}
	t.AddRow("L1 cache", fmt.Sprintf("size %d KB, %d-byte lines, direct-mapped, write-back, %d-cycle hit, one outstanding miss",
		p.L1Bytes/1024, params.LineSize, p.L1HitCycles))
	t.AddRow("RAC", fmt.Sprintf("%d x %d-byte lines, direct-mapped, non-inclusive, holds last remote fill",
		p.RACEntries, params.BlockSize))
	t.AddRow("Network", fmt.Sprintf("%d-cycle propagation, %dx%d switch topology, input-port contention only, fall-through %d cycles",
		p.NetPropCycles, p.SwitchRadix, p.SwitchRadix, p.NetFallThrough))
	t.AddRow("Bus", fmt.Sprintf("split-transaction, %d-cycle occupancy", p.BusCycles))
	t.AddRow("Memory", fmt.Sprintf("%d banks, %d-cycle access", p.MemBanks, p.LocalMemCycles))
	t.AddRow("DSM block", fmt.Sprintf("%d bytes (%d lines) per transfer", params.BlockSize, params.LinesPerBlock))
	fmt.Print(t.String())
	fmt.Println()
}

// table4 prints the minimum access latencies measured on an idle machine.
func table4() {
	p := ascoma.DefaultParams()
	fmt.Println("== Table 4: Minimum Access Latency ==")
	t := &stats.Table{Header: []string{"data location", "latency (cycles)"}}
	t.AddRow("L1 cache", p.L1HitCycles)
	t.AddRow("Local memory", p.BusCycles+p.LocalMemCycles)
	t.AddRow("RAC", p.RACHitCycles)
	t.AddRow("Remote memory", p.RemoteMemCycles())
	fmt.Print(t.String())
	fmt.Printf("remote:local ratio = %.1f (paper: about 3:1)\n\n",
		float64(p.RemoteMemCycles())/float64(p.BusCycles+p.LocalMemCycles))
}
