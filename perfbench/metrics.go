package main

import (
	"time"

	"ascoma/internal/report"
	"ascoma/internal/stats"
)

// def names one metric of the summary line, as BENCHMARK.json lists it.
type def struct{ name, unit, better string }

// endToEndDefs are the metrics every untraced run reports, on every
// workload. Each is a host-time or host-memory figure and never zero.
var endToEndDefs = []def{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"sim_refs_per_s", "1/s", "higher"},
	{"op_ms_p50", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayerDefs are the metrics every traced run reports. A layer the
// workload never calls reads 0.
func perLayerDefs() []def {
	ds := []def{
		{"workload.new_ms", "ms", "lower"},
		{"machine.new_us", "us", "lower"},
		{"machine.release_us", "us", "lower"},
		{"machine.run_ns_per_ref", "ns/ref", "lower"},
		{"proc.cpu_per_wall", "ratio", "higher"},
		{"cache.l1_hit_ratio", "ratio", "higher"},
		{"cache.rac_hits", "count/ref", "higher"},
		{"cache.scoma_hits", "count/ref", "higher"},
		{"directory.remote_misses", "count/ref", "lower"},
		{"directory.home_misses", "count/ref", "lower"},
		{"directory.invalidations", "count/ref", "lower"},
		{"directory.writebacks", "count/ref", "lower"},
		{"directory.busy_cycles", "cycles/ref", "lower"},
		{"network.port_busy_cycles", "cycles/ref", "lower"},
		{"bus.busy_cycles", "cycles/ref", "lower"},
		{"mem.busy_cycles", "cycles/ref", "lower"},
		{"vm.page_faults", "count/ref", "lower"},
		{"vm.daemon_runs", "count/ref", "lower"},
		{"vm.reclaim_ratio", "ratio", "higher"},
		{"core.upgrades", "count/ref", "lower"},
		{"core.downgrades", "count/ref", "lower"},
		{"core.reloc_denied", "count/ref", "lower"},
		{"core.thrash_events", "count/ref", "lower"},
		{"runcache.hit_ratio", "ratio", "higher"},
		{"runcache.dedup", "ratio", "higher"},
		{"serve.run_hit_us_p50", "us", "lower"},
		{"serve.run_miss_ms_p50", "ms", "lower"},
		{"serve.estimate_us_p50", "us", "lower"},
	}
	for _, app := range report.FigureApps(0) {
		ds = append(ds, def{"report.figure_s." + app, "s", "lower"})
	}
	ds = append(ds,
		def{"alloc.bytes_per_op", "B/op", "lower"},
		def{"alloc.objects_per_op", "count/op", "lower"},
		def{"gc.cycles", "count/op", "lower"},
	)
	for _, g := range cpuGroups {
		ds = append(ds, def{"cpu." + g, "%", "lower"})
	}
	return append(ds, def{"trace.overhead_pct", "%", "lower"})
}

func toSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// endToEnd computes the end-to-end metrics of an untraced phase. Rates
// divide the fixed work of one pass by the median pass time, so a stray
// slow pass moves them no more than it moves wall_s. The second map holds
// the figures that are not in the summary line: tail latencies (only with
// enough samples beyond them) and failed_ratio.
func endToEnd(setups []float64, ph *phase) (e2e, tails map[string]metric) {
	setup, _ := median(setups)
	wall, _ := median(toSeconds(ph.passes))
	passes := float64(len(ph.passes))
	p50, _ := median(ph.ops)
	e2e = map[string]metric{
		"setup_s":        {Value: setup, Unit: "s", N: len(setups)},
		"wall_s":         {Value: wall, Unit: "s", N: len(ph.passes)},
		"sim_refs_per_s": {Value: float64(ph.refs) / passes / wall, Unit: "1/s"},
		"op_ms_p50":      {Value: p50, Unit: "ms", N: len(ph.ops)},
		"ops_per_s":      {Value: float64(len(ph.ops)) / passes / wall, Unit: "1/s"},
		"peak_rss_mb":    {Value: float64(ph.peakRSS) / (1 << 20), Unit: "MB"},
	}
	attempted, failed := ph.counts()
	tails = map[string]metric{
		"failed_ratio": {Value: float64(failed) / float64(max(attempted, 1)), Unit: "ratio", N: int(attempted)},
	}
	for _, t := range []struct {
		name string
		q    float64
	}{{"op_ms_p90", 0.90}, {"op_ms_p99", 0.99}} {
		if v, ok := percentile(ph.ops, t.q); ok {
			tails[t.name] = metric{Value: v, Unit: "ms", N: len(ph.ops)}
		}
	}
	return e2e, tails
}

// perLayer computes the per-layer metrics of a traced phase; base is the
// untraced phase of the same run, for the tracing overhead.
func perLayer(setupSpans *spans, base, tr *phase) (map[string]metric, error) {
	v := map[string]float64{}
	var compile time.Duration
	for _, d := range setupSpans.durations("workload.New") {
		compile += d
	}
	v["workload.new_ms"] = ms(compile)
	medUS := func(name string) float64 {
		m, _ := median(toMS(tr.sp.durations(name)))
		return m * 1e3
	}
	v["machine.new_us"] = medUS("machine.New")
	v["machine.release_us"] = medUS("machine.Release")
	if runs := tr.sp.durations("machine.RunContext"); len(runs) > 0 && tr.refs > 0 {
		refsPerRun := float64(tr.refs) / float64(len(runs))
		v["machine.run_ns_per_ref"] = medUS("machine.RunContext") * 1e3 / refsPerRun
	}
	if tr.elapsed > 0 {
		v["proc.cpu_per_wall"] = tr.cpu.Seconds() / tr.elapsed.Seconds()
	}

	c := &tr.sim
	per := func(x int64) float64 {
		if c.refs == 0 {
			return 0
		}
		return float64(x) / float64(c.refs)
	}
	v["cache.l1_hit_ratio"] = per(c.l1Hits)
	v["cache.rac_hits"] = per(c.misses[stats.RAC])
	v["cache.scoma_hits"] = per(c.misses[stats.SComa])
	v["directory.remote_misses"] = per(c.misses[stats.Cold] + c.misses[stats.ConfCapc])
	v["directory.home_misses"] = per(c.misses[stats.Home])
	v["directory.invalidations"] = per(c.invalidations)
	v["directory.writebacks"] = per(c.writebacks)
	v["directory.busy_cycles"] = per(c.dirBusy)
	v["network.port_busy_cycles"] = per(c.portBusy)
	v["bus.busy_cycles"] = per(c.busBusy)
	v["mem.busy_cycles"] = per(c.memBusy)
	v["vm.page_faults"] = per(c.pageFaults)
	v["vm.daemon_runs"] = per(c.daemonRuns)
	if c.scanned > 0 {
		v["vm.reclaim_ratio"] = float64(c.reclaimed) / float64(c.scanned)
	}
	v["core.upgrades"] = per(c.upgrades)
	v["core.downgrades"] = per(c.downgrades)
	v["core.reloc_denied"] = per(c.relocDenied)
	v["core.thrash_events"] = per(c.thrashEvents)

	v["runcache.hit_ratio"] = tr.rc.HitRate()
	if n := tr.rc.Lookups(); n > 0 {
		v["runcache.dedup"] = float64(tr.rc.Dedups) / float64(n)
	}
	v["serve.run_hit_us_p50"] = medUS(kindRunHit)
	v["serve.run_miss_ms_p50"] = medUS(kindRunMiss) / 1e3
	v["serve.estimate_us_p50"] = medUS(kindEstimate)
	for _, app := range report.FigureApps(0) {
		v["report.figure_s."+app] = medUS("report.Figure/"+app) / 1e6
	}

	ops := float64(max(len(tr.ops), 1))
	v["alloc.bytes_per_op"] = float64(tr.allocBytes) / ops
	v["alloc.objects_per_op"] = float64(tr.allocObjs) / ops
	v["gc.cycles"] = float64(tr.gcCycles) / ops
	shares, err := cpuShares(tr.profile)
	if err != nil {
		return nil, err
	}
	for g, s := range shares {
		v["cpu."+g] = s
	}
	bw, _ := median(toSeconds(base.passes))
	tw, _ := median(toSeconds(tr.passes))
	if bw > 0 {
		v["trace.overhead_pct"] = 100 * (tw/bw - 1)
	}

	out := map[string]metric{}
	for _, d := range perLayerDefs() {
		out[d.name] = metric{Value: v[d.name], Unit: d.unit}
	}
	return out, nil
}
