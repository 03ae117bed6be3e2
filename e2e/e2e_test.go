// Package e2e drives multi-worker ascoma-serve farms end to end: real HTTP
// listeners, the async job API, and the shared content-addressed result
// store — over the /cache/v1 peer protocol and over a shared disk
// directory. `make e2e` runs the full suite; the hundreds-of-jobs load
// test skips under -short.
package e2e

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ascoma/e2e/harness"
	"ascoma/internal/jobs"
	"ascoma/internal/report"
)

// gridSpec expands to the figure grid for one app, exactly what a later
// figure render with the same knobs reads.
const gridSpec = `{"grid":{"apps":["uniform"],"pressures":[10,90],"scale":16}}`
const figurePath = "/api/v1/figure/uniform?scale=16&pressures=10,90"

var gridCells = int64(len(report.FigureCells("uniform", 16, []int{10, 90})))

// TestFarmSharesCacheOverPeers is the acceptance path: a grid submitted to
// worker A renders as a figure on worker B with zero new simulations — B
// pulls every cell from A over the peer protocol — and B's /metrics
// reports the hit rate.
func TestFarmSharesCacheOverPeers(t *testing.T) {
	cl, err := harness.New(harness.Options{Workers: 2, Peers: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	st, err := cl.SubmitJob(0, gridSpec)
	if err != nil {
		t.Fatal(err)
	}
	final, err := cl.WaitJob(0, st.ID, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != jobs.StateDone || int64(final.CellsDone) != gridCells {
		t.Fatalf("grid job on worker A: %+v", final)
	}
	// Worker A simulates each cell or fills it from a run of the grid
	// that certified its pressure; either way it holds every cell.
	stA := cl.Server(0).Cache().Stats()
	simsA := stA.Sims
	if simsA+stA.Shared != gridCells {
		t.Fatalf("worker A simulated %d cells and shared %d, want %d in all", simsA, stA.Shared, gridCells)
	}

	if _, err := cl.Get(1, figurePath); err != nil {
		t.Fatal(err)
	}
	stB := cl.Server(1).Cache().Stats()
	if stB.Sims != 0 {
		t.Errorf("worker B simulated %d cells for a grid worker A already ran", stB.Sims)
	}
	if stB.RemoteHits != gridCells {
		t.Errorf("worker B remote hits = %d, want %d", stB.RemoteHits, gridCells)
	}
	if got := cl.Server(0).Cache().Stats().Sims; got != simsA {
		t.Errorf("worker B's render triggered %d new sims on worker A", got-simsA)
	}

	metrics, err := cl.Metrics(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"ascoma_runcache_sims_total 0",
		fmt.Sprintf("ascoma_runcache_remote_hits_total %d", gridCells),
		"ascoma_runcache_hit_ratio 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("worker B metrics missing %q:\n%s", want, metrics)
		}
	}

	// And the reverse direction: a run B has cached serves A remotely.
	simsB := cl.Server(1).Cache().Stats().Sims
	if _, err := cl.Get(0, figurePath); err != nil {
		t.Fatal(err)
	}
	if got := cl.Server(1).Cache().Stats().Sims; got != simsB {
		t.Errorf("worker A's render triggered sims on worker B")
	}
	if got := cl.Server(0).Cache().Stats().Sims; got != simsA {
		t.Errorf("worker A re-simulated its own grid: %d new sims", got-simsA)
	}
}

// TestFarmSharesCacheOverDisk covers the shared-directory deployment: no
// peer wiring, both workers mount the same cache dir, and worker B's
// figure render is pure disk hits.
func TestFarmSharesCacheOverDisk(t *testing.T) {
	cl, err := harness.New(harness.Options{Workers: 2, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	st, err := cl.SubmitJob(0, gridSpec)
	if err != nil {
		t.Fatal(err)
	}
	if final, err := cl.WaitJob(0, st.ID, 2*time.Minute); err != nil || final.State != jobs.StateDone {
		t.Fatalf("grid job: %+v, %v", final, err)
	}
	if _, err := cl.Get(1, figurePath); err != nil {
		t.Fatal(err)
	}
	stB := cl.Server(1).Cache().Stats()
	if stB.Sims != 0 || stB.DiskHits != gridCells {
		t.Errorf("worker B over shared disk: %+v, want %d disk hits and 0 sims", stB, gridCells)
	}
}

// TestFarmLoad proves the farm under hundreds of concurrent jobs: a
// realistic mix (repeated run specs plus a few grids) fanned across both
// workers, every job completing, and the cluster-wide hit rate reflecting
// that distinct configurations — not requests — cost simulations.
func TestFarmLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("load test skipped in short mode")
	}
	cl, err := harness.New(harness.Options{Workers: 2, Peers: true, Jobs: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	archs := []string{"CC-NUMA", "S-COMA", "AS-COMA", "V-C-NUMA", "R-NUMA"}
	pressures := []int{10, 30, 50, 70, 90}
	const runJobs = 300
	specs := make([]string, 0, runJobs+2)
	for i := 0; i < runJobs; i++ {
		specs = append(specs, fmt.Sprintf(
			`{"run":{"arch":%q,"workload":"uniform","pressure":%d,"scale":32}}`,
			archs[i%len(archs)], pressures[(i/len(archs))%len(pressures)]))
	}
	// A couple of grid jobs ride along; their cells overlap the run specs'
	// key space at a different scale, so they add distinct work.
	specs = append(specs,
		`{"grid":{"apps":["uniform"],"pressures":[10,90],"scale":16}}`,
		`{"grid":{"apps":["uniform"],"pressures":[10,90],"scale":16}}`)

	type submitted struct {
		worker int
		id     string
	}
	subs := make([]submitted, len(specs))
	var wg sync.WaitGroup
	errs := make(chan error, len(specs))
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec string) {
			defer wg.Done()
			w := i % cl.Workers()
			st, err := cl.SubmitJob(w, spec)
			if err != nil {
				errs <- err
				return
			}
			subs[i] = submitted{worker: w, id: st.ID}
		}(i, spec)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for _, sub := range subs {
		final, err := cl.WaitJob(sub.worker, sub.id, 2*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != jobs.StateDone {
			t.Fatalf("job %s on worker %d: %+v", sub.id, sub.worker, final)
		}
	}

	// 25 distinct run configs + 9 distinct grid cells; each worker can
	// simulate a config at most once (local singleflight), and peer hits
	// should keep the real number below even that. The worst case — every
	// distinct config simulated independently on both workers — still
	// leaves each worker's hit rate at 1 - 34/159 ≈ 0.79.
	const distinct = 25 + 9
	var sims int64
	for i := 0; i < cl.Workers(); i++ {
		st := cl.Server(i).Cache().Stats()
		sims += st.Sims
		if rate := st.HitRate(); rate < 0.75 {
			t.Errorf("worker %d hit rate %.2f under load (%+v)", i, rate, st)
		}
	}
	if sims > 2*distinct {
		t.Errorf("cluster simulated %d times for %d distinct configs", sims, distinct)
	}
	// The farm drained: no live jobs, and the submission counters add up.
	for i := 0; i < cl.Workers(); i++ {
		metrics, err := cl.Metrics(i)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(metrics, "ascoma_jobs_live 0") {
			t.Errorf("worker %d still reports live jobs after drain", i)
		}
	}
}
