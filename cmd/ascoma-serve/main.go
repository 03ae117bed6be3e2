// Command ascoma-serve exposes the simulator as an HTTP service backed by
// the shared run-orchestration layer: a bounded worker pool, a layered
// content-addressed result cache (memory LRU, optional -cachedir disk
// layer, optional -peers HTTP workers sharing the store), per-request
// timeouts, an async job farm, and graceful drain on SIGTERM/SIGINT.
//
// Endpoints:
//
//	POST   /api/v1/run             {"arch":"AS-COMA","workload":"radix","pressure":70,"scale":8}
//	GET    /api/v1/figure/{app}    ?format=table|csv|chart&pressures=10,90&scale=8
//	POST   /api/v1/jobs            {"run":{...}} | {"grid":{...}} | {"figure":{...}} -> 202 + job id
//	GET    /api/v1/jobs/{id}       poll status/result
//	GET    /api/v1/jobs/{id}/events  NDJSON stream: cell completions, epoch probes, terminal state
//	DELETE /api/v1/jobs/{id}       cancel
//	GET    /cache/v1/{key}         peer protocol: serve this worker's cached results
//	GET    /healthz
//	GET    /metrics                Prometheus text exposition
//	GET    /debug/pprof/...        live profiling; only registered with -pprof
//
// Identical concurrent requests collapse onto one simulation — including
// across workers: a request for a key a peer is already simulating waits
// for that peer's fill through the /cache/v1 protocol.
//
//	ascoma-serve -addr :8372 -cachedir /var/cache/ascoma -jobs 8
//	ascoma-serve -peers http://10.0.0.7:8372,http://10.0.0.8:8372
//	ascoma-serve -smoke      # self-test: start, probe every surface, drain, exit
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"ascoma/internal/runcache"
	"ascoma/internal/serve"
)

var (
	addr       = flag.String("addr", "127.0.0.1:8372", "listen address")
	cacheDir   = flag.String("cachedir", "", "persist simulation results in this directory")
	cacheSize  = flag.Int("cachesize", 1024, "in-memory result cache entries")
	peers      = flag.String("peers", "", "comma-separated base URLs of peer workers sharing the result store")
	jobs       = flag.Int("jobs", runtime.NumCPU(), "maximum concurrent simulations")
	reqTimeout = flag.Duration("timeout", 5*time.Minute, "per-request simulation timeout")
	drainWait  = flag.Duration("drain", 15*time.Second, "graceful shutdown drain budget")
	smoke      = flag.Bool("smoke", false, "self-test: serve on a random port, probe the endpoints, drain, exit")
	pprofOn    = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (off by default: profiling endpoints leak runtime detail)")
)

func buildCache() (*runcache.Cache, error) {
	var backends []runcache.Backend
	if *cacheDir != "" {
		disk, err := runcache.NewDiskBackend(*cacheDir)
		if err != nil {
			return nil, err
		}
		backends = append(backends, disk)
	}
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			backends = append(backends, runcache.NewHTTPBackend(p, &http.Client{Timeout: 30 * time.Second}))
		}
	}
	return runcache.NewWithBackends(*cacheSize, backends...), nil
}

func main() {
	flag.Parse()

	cache, err := buildCache()
	if err != nil {
		log.Fatal(err)
	}
	s := serve.New(serve.Config{
		Cache:   cache,
		Jobs:    *jobs,
		Timeout: *reqTimeout,
		Pprof:   *pprofOn,
	})

	if *smoke {
		if err := serve.Smoke(s); err != nil {
			log.Fatalf("smoke: %v", err)
		}
		fmt.Println("ascoma-serve smoke ok:", cache.Stats())
		return
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("ascoma-serve listening on %s (jobs=%d cache=%d entries, dir=%q, peers=%q)",
			*addr, *jobs, *cacheSize, *cacheDir, *peers)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Printf("ascoma-serve draining (up to %v)...", *drainWait)
	dctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		log.Fatalf("drain: %v", err)
	}
	s.Close()
	log.Printf("ascoma-serve stopped; cache %s", cache.Stats())
}
