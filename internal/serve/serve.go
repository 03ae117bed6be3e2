// Package serve implements the ascoma-serve HTTP service: the synchronous
// run/figure endpoints, the async job farm (submit -> poll -> stream), the
// /cache/v1 peer protocol that lets workers share one content-addressed
// result store, and the metrics/pprof surface. cmd/ascoma-serve is
// a thin flag wrapper; the e2e harness builds Servers in-process to drive
// multi-worker topologies.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"ascoma"
	"ascoma/internal/estimate"
	"ascoma/internal/jobs"
	"ascoma/internal/obs"
	"ascoma/internal/report"
	"ascoma/internal/runcache"
	"ascoma/internal/stats"
)

// StatusClientClosedRequest is the non-standard (nginx-convention) status
// for a request whose client went away: the work was cancelled, nothing
// failed. Kept distinct from 504 (the server's own deadline) and 500 so
// disconnect storms never page anyone as server errors.
const StatusClientClosedRequest = 499

// Config assembles one Server.
type Config struct {
	// Cache is the content-addressed result cache (required). Build it
	// with runcache.NewWithBackends to share a store across workers.
	Cache *runcache.Cache
	// Jobs bounds concurrent simulations (< 1 = NumCPU).
	Jobs int
	// Deprecated: runs are sequential; ignored.
	Cores int
	// Timeout bounds each synchronous request's simulation work.
	Timeout time.Duration
	// Pprof exposes net/http/pprof under /debug/pprof/ when set.
	Pprof bool
	// JobOpts tunes the async job manager (zero value = defaults).
	JobOpts jobs.Options
}

// Server holds the orchestration layer and the request-level metrics. The
// metrics live on a per-server obs.Registry (served at /metrics in
// Prometheus text form), so several Servers per process — the e2e
// harness, the farm tests — never share or clobber state.
type Server struct {
	runner  *runcache.Runner
	cache   *runcache.Cache
	mgr     *jobs.Manager
	timeout time.Duration
	pprofOn bool

	reg        *obs.Registry
	archRuns   *obs.CounterVec // completed requests by architecture (+ "figure")
	archNanos  *obs.CounterVec // cumulative request latency by architecture
	runSeconds *obs.Histogram  // request latency distribution
	errCodes   *obs.CounterVec // failed requests by status code (499/500/504)
	jobsByKind *obs.CounterVec // admitted jobs by spec kind
	estimates  *obs.Counter    // analytical estimate requests served

	estReplies replyTable // encoded estimate replies by normalized spec
}

// New builds a Server over cfg.
func New(cfg Config) *Server {
	runner := &runcache.Runner{Cache: cfg.Cache, Jobs: cfg.Jobs}
	reg := obs.NewRegistry()
	s := &Server{
		runner:  runner,
		cache:   cfg.Cache,
		mgr:     jobs.NewManager(runner, cfg.JobOpts),
		timeout: cfg.Timeout,
		pprofOn: cfg.Pprof,
		reg:     reg,
		archRuns: reg.NewCounterVec("ascoma_requests_total",
			"Completed simulation requests by architecture (figure renders count as \"figure\").", "arch"),
		archNanos: reg.NewCounterVec("ascoma_request_nanos_total",
			"Cumulative request latency in nanoseconds by architecture.", "arch"),
		runSeconds: reg.NewHistogram("ascoma_request_seconds",
			"Request latency in seconds (cache hits and fresh simulations alike).", nil),
		errCodes: reg.NewCounterVec("ascoma_request_errors_total",
			"Failed simulation requests by status code: 499 = client disconnected (not a server fault), 504 = server deadline, 500 = simulation error.", "code"),
		jobsByKind: reg.NewCounterVec("ascoma_jobs_submitted_total",
			"Admitted async jobs by spec kind.", "kind"),
		estimates: reg.NewCounter("ascoma_estimates_total",
			"Analytical estimate requests served (POST /api/v1/estimate); no simulation runs for these."),
	}
	reg.NewGaugeFunc("ascoma_inflight_runs",
		"Simulations currently executing (cache hits never count).",
		func() float64 { return float64(runner.InFlight()) })
	cfg.Cache.Publish(reg)
	s.mgr.Publish(reg)
	return s
}

// Cache returns the server's result cache (the smoke test and the e2e
// harness assert on its counters).
func (s *Server) Cache() *runcache.Cache { return s.cache }

// Jobs returns the async job manager.
func (s *Server) Jobs() *jobs.Manager { return s.mgr }

// Close cancels every live job. Call it after draining the HTTP server.
func (s *Server) Close() { s.mgr.Close() }

// Handler returns the service's routing table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n") //ascoma:allow-errdrop client write failure is the client's problem
	})
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.HandleFunc("POST /api/v1/run", s.handleRun)
	mux.HandleFunc("POST /api/v1/estimate", s.handleEstimate)
	mux.HandleFunc("GET /api/v1/figure/{app}", s.handleFigure)
	mux.HandleFunc("POST /api/v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.handleJobEvents)
	mux.Handle(runcache.PeerPrefix, http.StripPrefix(
		strings.TrimSuffix(runcache.PeerPrefix, "/"), runcache.PeerHandler(s.cache)))
	if s.pprofOn {
		// The mux is not DefaultServeMux, so the handlers the pprof
		// import registers there are unreachable; wire them explicitly.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// writeRunError maps a simulation error onto the status taxonomy and the
// error counter: the server's own deadline is 504, a client that went
// away is 499 (observable but never a server fault), anything else is a
// real 500.
func (s *Server) writeRunError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		status = StatusClientClosedRequest
	}
	s.errCodes.With(strconv.Itoa(status)).Inc()
	http.Error(w, err.Error(), status)
}

// maxSpecBytes bounds a request body; a longer one is cut there and fails
// to decode.
const maxSpecBytes = 1 << 20

// decodeSpec decodes a request body into v. The body must be exactly one
// JSON value of at most maxSpecBytes, followed by nothing but whitespace,
// and name no field v lacks: a field the server does not know would
// otherwise be dropped, and the reply would answer a different spec than
// the one sent. Anything else is an error every handler answers with 400.
func decodeSpec(body io.Reader, v any) error {
	dec := json.NewDecoder(io.LimitReader(body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("bad request body: trailing data after the spec")
	}
	return nil
}

// encodeJSON returns v exactly as json.NewEncoder(w).Encode(v) writes it:
// the JSON encoding plus a trailing newline.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// writeJSON answers 200 with an encoded JSON body. Handlers encode before
// they write any header, so an encode failure is still a clean 500.
func writeJSON(w http.ResponseWriter, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body) //ascoma:allow-errdrop client write failure is the client's problem
}

// encodeRunReply encodes the POST /api/v1/run reply for res. Its bytes
// are stored with res's cache entry (runcache.Runner.Reply), so a repeat
// request is answered without re-encoding.
func encodeRunReply(res *ascoma.Result) ([]byte, error) {
	return encodeJSON(jobs.RunResult{Result: stats.Report(res.Machine), Samples: res.Samples})
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var spec jobs.RunSpec
	if err := decodeSpec(r.Body, &spec); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if spec.EpochInterval != 0 {
		http.Error(w, "epochInterval requires the async jobs endpoint (POST /api/v1/jobs)", http.StatusBadRequest)
		return
	}
	cfg, err := spec.Config()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()
	start := time.Now()
	body, err := s.runner.Reply(ctx, cfg, encodeRunReply)
	if err != nil {
		s.writeRunError(w, err)
		return
	}
	elapsed := time.Since(start)
	s.archRuns.With(cfg.Arch.String()).Inc()
	s.archNanos.With(cfg.Arch.String()).Add(elapsed.Nanoseconds())
	s.runSeconds.Observe(elapsed.Seconds())
	writeJSON(w, body)
}

// estimateReplyBudget bounds the bytes (keys plus bodies) of one Server's
// estimate reply table. A default-axis reply is about 8.5 KB, so the
// table holds some thirty of them: every figure workload with room to
// spare. It is small on purpose. Under all-distinct specs
// (BenchmarkServeEstimateCold, 2-vCPU Xeon) a 1 MiB or 4 MiB table made
// first requests about 12% slower than no table, while 256 KiB matched it:
// the retained bytes grow the heap every request allocates from.
const estimateReplyBudget = 256 << 10

// replyTable holds encoded estimate replies keyed by the JSON of their
// normalized spec. It is emptied whenever an insert would take it past
// estimateReplyBudget.
type replyTable struct {
	mu    sync.Mutex
	m     map[string][]byte
	bytes int
}

func (t *replyTable) get(key []byte) []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m[string(key)]
}

func (t *replyTable) put(key, body []byte) {
	n := len(key) + len(body)
	if n > estimateReplyBudget {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.m[string(key)]; ok {
		return
	}
	if t.m == nil || t.bytes+n > estimateReplyBudget {
		t.m, t.bytes = map[string][]byte{}, 0
	}
	t.m[string(key)] = body
	t.bytes += n
}

// handleEstimate serves the analytical fast path: one steady-state
// prediction per (arch, pressure) cell, computed in microseconds from the
// workload's memoized structural profile. Validation errors are 400s like
// the simulation endpoints; nothing here touches the runner or the cache.
// A spec that normalizes to one answered before gets the stored bytes.
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	var spec jobs.EstimateSpec
	if err := decodeSpec(r.Body, &spec); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	norm, err := spec.Normalize()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	key, err := json.Marshal(norm)
	if err != nil {
		s.writeEstimateError(w, err)
		return
	}
	body := s.estReplies.get(key)
	if body == nil {
		preds, err := norm.Predictions()
		if err != nil {
			s.writeEstimateError(w, err)
			return
		}
		body, err = encodeJSON(struct {
			Workload    string                `json:"workload"`
			Predictions []estimate.Prediction `json:"predictions"`
		}{norm.Workload, preds})
		if err != nil {
			s.writeEstimateError(w, err)
			return
		}
		s.estReplies.put(key, body)
	}
	s.estimates.Inc()
	writeJSON(w, body)
}

// writeEstimateError answers a failed estimate: 400 for a validation
// error, else a counted 500.
func (s *Server) writeEstimateError(w http.ResponseWriter, err error) {
	if jobs.IsValidation(err) {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.errCodes.With(strconv.Itoa(http.StatusInternalServerError)).Inc()
	http.Error(w, err.Error(), http.StatusInternalServerError)
}

func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	app := r.PathValue("app")
	fig := jobs.FigureSpec{App: app}
	q := r.URL.Query()
	fig.Format = q.Get("format")
	if v := q.Get("scale"); v != "" {
		scale, err := strconv.Atoi(v)
		if err != nil || scale < 1 {
			http.Error(w, "scale must be a positive integer", http.StatusBadRequest)
			return
		}
		fig.Scale = scale
	}
	if v := q.Get("pressures"); v != "" {
		plist, err := report.ParsePressures(v)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		fig.Pressures = plist
	}
	opts, err := fig.ReportOptions(s.runner)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()
	// Render into a buffer so a mid-grid failure returns a clean error
	// instead of a truncated document.
	var buf strings.Builder
	start := time.Now()
	if err := report.Figure(ctx, &buf, app, opts); err != nil {
		s.writeRunError(w, err)
		return
	}
	elapsed := time.Since(start)
	s.archRuns.With("figure").Inc()
	s.archNanos.With("figure").Add(elapsed.Nanoseconds())
	s.runSeconds.Observe(elapsed.Seconds())
	if opts.Format == "csv" {
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	} else {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	io.WriteString(w, buf.String()) //ascoma:allow-errdrop client write failure is the client's problem
}

// handleJobSubmit admits one async job: 202 + status on success, 400 on a
// bad spec, 503 + Retry-After when the admission bound is hit.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var spec jobs.Spec
	if err := decodeSpec(r.Body, &spec); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	j, err := s.mgr.Submit(spec)
	switch {
	case err == nil:
	case jobs.IsValidation(err):
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	case errors.Is(err, jobs.ErrBusy):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.jobsByKind.With(spec.Kind()).Inc()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Location", "/api/v1/jobs/"+j.ID())
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(j.Status()) //ascoma:allow-errdrop client write failure is the client's problem
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) *jobs.Job {
	j := s.mgr.Get(r.PathValue("id"))
	if j == nil {
		http.Error(w, "unknown job", http.StatusNotFound)
	}
	return j
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(j.Status()) //ascoma:allow-errdrop client write failure is the client's problem
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	j.Cancel()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(j.Status()) //ascoma:allow-errdrop client write failure is the client's problem
}

// handleJobEvents streams the job's event log as NDJSON (one JSON event
// per line, flushed as produced): everything from ?from=<seq> (default 0)
// that exists, then live events until the job is terminal or the client
// goes away. Reconnect with from=<last seq + 1> to resume.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	from := 0
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "from must be a non-negative integer", http.StatusBadRequest)
			return
		}
		from = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		evs, err := j.Wait(r.Context(), from)
		if err != nil {
			return // io.EOF (terminal, drained) or the client went away
		}
		for _, ev := range evs {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
		from += len(evs)
		if fl != nil {
			fl.Flush()
		}
	}
}
