// Package harness builds in-process ascoma-serve farms for end-to-end
// tests: N workers, each a real serve.Server behind a real HTTP listener,
// wired as cache peers (full mesh over the /cache/v1 protocol) and/or over
// a shared disk directory. The e2e suite and the load test drive realistic
// job mixes through it and assert on each worker's cache counters and
// /metrics exposition.
package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"ascoma/internal/jobs"
	"ascoma/internal/runcache"
	"ascoma/internal/serve"
)

// Options shapes a Cluster. The zero value of every field selects a
// sensible test default.
type Options struct {
	// Workers is the number of servers (default 2).
	Workers int
	// Peers wires every worker's cache to every other worker over the
	// /cache/v1 protocol.
	Peers bool
	// CacheDir, when non-empty, gives every worker the same disk layer —
	// the shared-directory deployment mode.
	CacheDir string
	// CacheSize bounds each worker's memory LRU (default 1024).
	CacheSize int
	// Jobs bounds each worker's concurrent simulations (default 4).
	Jobs int
	// JobOpts tunes each worker's async job manager.
	JobOpts jobs.Options
}

// Cluster is a running in-process farm. Close it when done.
type Cluster struct {
	servers []*serve.Server
	https   []*httptest.Server
	client  *http.Client
}

// New starts the cluster. The listeners exist before any server starts, so
// peer URLs are known when each worker's cache is built.
func New(opts Options) (*Cluster, error) {
	n := opts.Workers
	if n < 1 {
		n = 2
	}
	if opts.Jobs < 1 {
		opts.Jobs = 4
	}
	https := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := range https {
		https[i] = httptest.NewUnstartedServer(nil)
		urls[i] = "http://" + https[i].Listener.Addr().String()
	}
	cl := &Cluster{https: https, client: &http.Client{Timeout: 2 * time.Minute}}
	for i := 0; i < n; i++ {
		var backends []runcache.Backend
		if opts.CacheDir != "" {
			disk, err := runcache.NewDiskBackend(opts.CacheDir)
			if err != nil {
				cl.Close()
				return nil, err
			}
			backends = append(backends, disk)
		}
		if opts.Peers {
			for j := 0; j < n; j++ {
				if j != i {
					backends = append(backends, runcache.NewHTTPBackend(urls[j], cl.client))
				}
			}
		}
		s := serve.New(serve.Config{
			Cache:   runcache.NewWithBackends(opts.CacheSize, backends...),
			Jobs:    opts.Jobs,
			Timeout: 2 * time.Minute,
			JobOpts: opts.JobOpts,
		})
		cl.servers = append(cl.servers, s)
		https[i].Config.Handler = s.Handler()
		https[i].Start()
	}
	return cl, nil
}

// Close stops every worker.
func (c *Cluster) Close() {
	for _, ts := range c.https {
		ts.CloseClientConnections()
		ts.Close()
	}
	for _, s := range c.servers {
		s.Close()
	}
}

// Workers returns the cluster size.
func (c *Cluster) Workers() int { return len(c.servers) }

// URL returns worker i's base URL.
func (c *Cluster) URL(i int) string { return c.https[i].URL }

// Server returns worker i's serve.Server (for cache-counter assertions).
func (c *Cluster) Server(i int) *serve.Server { return c.servers[i] }

// Get fetches a path from worker i, requiring 200.
func (c *Cluster) Get(i int, path string) (string, error) {
	resp, err := c.client.Get(c.URL(i) + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s on worker %d: %s: %s", path, i, resp.Status, body)
	}
	return string(body), nil
}

// Metrics returns worker i's /metrics exposition.
func (c *Cluster) Metrics(i int) (string, error) { return c.Get(i, "/metrics") }

// SubmitJob posts a job spec to worker i and returns the accepted status.
func (c *Cluster) SubmitJob(i int, spec string) (jobs.Status, error) {
	resp, err := c.client.Post(c.URL(i)+"/api/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		return jobs.Status{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return jobs.Status{}, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return jobs.Status{}, fmt.Errorf("POST jobs on worker %d: %s: %s", i, resp.Status, body)
	}
	var st jobs.Status
	if err := json.Unmarshal(body, &st); err != nil {
		return jobs.Status{}, fmt.Errorf("job submit response: %w: %s", err, body)
	}
	return st, nil
}

// JobStatus polls worker i for one job's status.
func (c *Cluster) JobStatus(i int, id string) (jobs.Status, error) {
	body, err := c.Get(i, "/api/v1/jobs/"+id)
	if err != nil {
		return jobs.Status{}, err
	}
	var st jobs.Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		return jobs.Status{}, fmt.Errorf("job status: %w: %s", err, body)
	}
	return st, nil
}

// WaitJob polls worker i until the job is terminal (bounded by timeout).
func (c *Cluster) WaitJob(i int, id string, timeout time.Duration) (jobs.Status, error) {
	deadline := time.Now().Add(timeout)
	for {
		st, err := c.JobStatus(i, id)
		if err != nil {
			return st, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("job %s on worker %d stuck in %s after %v", id, i, st.State, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
