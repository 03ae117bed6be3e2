package report

// tables.go — Tables 1-4 of the paper: the analytic remote-overhead model
// (Table 1), the storage cost and complexity comparison (Table 2), the
// configured cache and network characteristics (Table 3), and the minimum
// access latencies of the simulated memory hierarchy (Table 4). They print
// as text whatever Options.Format says: each mixes tables with prose.

import (
	"context"
	"fmt"
	"io"

	"ascoma"
	"ascoma/internal/model"
	"ascoma/internal/params"
	"ascoma/internal/stats"
)

// Table renders the paper's Table n (1-6). Tables 5 and 6 cover apps;
// Tables 1-4 are fixed.
func Table(ctx context.Context, w io.Writer, n int, apps []string, o Options) error {
	switch n {
	case 1:
		return table1(ctx, w, o)
	case 2:
		return writeAll(w, table2())
	case 3:
		return writeAll(w, table3())
	case 4:
		return writeAll(w, table4())
	case 5:
		return Table5(ctx, w, apps, o)
	case 6:
		return Table6(ctx, w, apps, o)
	}
	return fmt.Errorf("report: unknown table %d (1-6)", n)
}

// table1 renders the remote-memory-overhead model of each architecture and
// evaluates its terms on radix runs at 70% pressure and scale 4 through
// internal/model, the one implementation of the formula, showing that the
// measured statistics plug into the paper's formulas.
func table1(ctx context.Context, w io.Writer, o Options) error {
	o = o.withDefaults()
	t := &stats.Table{Header: []string{"model", "remote overhead", "performance factors"}}
	t.AddRow("CC-NUMA", "(Nremote x Tremote)", "network speed")
	t.AddRow("S-COMA", "(Npagecache x Tpagecache) + (Ncold x Tremote) + Toverhead", "network speed, software overhead")
	t.AddRow("Hybrid", "(Npagecache x Tpagecache) + (Nremote x Tremote) + (Ncold x Tremote) + Toverhead", "network speed, software overhead")

	archs := []ascoma.Arch{ascoma.CCNUMA, ascoma.SCOMA, ascoma.ASCOMA, ascoma.VCNUMA, ascoma.RNUMA}
	cells := make([]ascoma.Config, len(archs))
	for i, a := range archs {
		cells[i] = ascoma.Config{Arch: a, Workload: "radix", Pressure: 70, Scale: 4}
	}
	results, err := o.Runner.RunAll(ctx, cells, nil)
	if err != nil {
		return fmt.Errorf("table 1: %w", err)
	}
	p := ascoma.DefaultParams()
	tl := &stats.Table{Header: []string{"arch", "Npagecache", "Nremote+Ncold", "Ncold(induced)", "Nrac", "Toverhead(cycles)", "overhead model (cycles)"}}
	for i, res := range results {
		t := model.Extract(res.Machine, &p)
		tl.AddRow(archs[i], t.Npagecache, t.RemoteMisses(), t.NcoldInduced, t.Nrac, t.Toverhead, t.Overhead())
	}
	return writeAll(w, "== Table 1: Remote Memory Overhead of Various Models ==\n", t.String(),
		"\n-- model terms measured on radix at 70% pressure (scale 4) --\n", tl.String(),
		"overhead model = the Hybrid formula + (Nrac x Trac): RAC hits would otherwise be remote misses\n\n")
}

// table2 renders the storage cost and complexity comparison, with the bit
// counts computed from the simulator's actual data structures.
func table2() string {
	t := &stats.Table{Header: []string{"model", "storage cost", "complexity"}}
	t.AddRow("CC-NUMA", "none", "none")
	t.AddRow("S-COMA",
		fmt.Sprintf("page cache state: 1 valid bit/block (%d/page) + ~32 bits/page map", params.BlocksPerPage),
		"page-cache lookup; local<->remote page map; page daemon + VM kernel")
	t.AddRow("Hybrid",
		fmt.Sprintf("S-COMA state + refetch count: counter/page/node (%d counters/page on %d nodes)", params.BlocksPerPage, ascoma.DefaultParams().Nodes),
		"S-COMA complexity + refetch counter, comparator and interrupt generator")
	return "== Table 2: Cost and Complexity of Various Models ==\n" + t.String() + "\n"
}

// table3 renders the configured cache and network characteristics.
func table3() string {
	p := ascoma.DefaultParams()
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
	return "== Table 3: Cache and Network Characteristics ==\n" + t.String() + "\n"
}

// table4 renders the minimum access latencies of an idle machine.
func table4() string {
	p := ascoma.DefaultParams()
	t := &stats.Table{Header: []string{"data location", "latency (cycles)"}}
	t.AddRow("L1 cache", p.L1HitCycles)
	t.AddRow("Local memory", p.BusCycles+p.LocalMemCycles)
	t.AddRow("RAC", p.RACHitCycles)
	t.AddRow("Remote memory", p.RemoteMemCycles())
	return "== Table 4: Minimum Access Latency ==\n" + t.String() +
		fmt.Sprintf("remote:local ratio = %.1f (paper: about 3:1)\n\n",
			float64(p.RemoteMemCycles())/float64(p.BusCycles+p.LocalMemCycles))
}
