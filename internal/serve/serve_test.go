package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ascoma/internal/jobs"
	"ascoma/internal/runcache"
)

func newTestServer(t *testing.T, opts ...func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Cache:   runcache.NewWithBackends(64),
		Jobs:    4,
		Timeout: time.Minute,
	}
	for _, o := range opts {
		o(&cfg)
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Errorf("healthz: %d %q", resp.StatusCode, body)
	}
}

func TestRunEndpoint(t *testing.T) {
	s, ts := newTestServer(t)
	post := func() map[string]any {
		resp, err := http.Post(ts.URL+"/api/v1/run", "application/json",
			strings.NewReader(`{"arch":"AS-COMA","workload":"uniform","pressure":70,"scale":32}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run: %d %s", resp.StatusCode, body)
		}
		var out map[string]any
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("run response not JSON: %v\n%s", err, body)
		}
		return out
	}
	out := post()
	result, ok := out["result"].(map[string]any)
	if !ok {
		t.Fatalf("response missing result: %v", out)
	}
	if result["arch"] != "AS-COMA" || result["workload"] != "uniform" {
		t.Errorf("result echo wrong: arch=%v workload=%v", result["arch"], result["workload"])
	}
	if exec, ok := result["execTimeCycles"].(float64); !ok || exec <= 0 {
		t.Errorf("execTimeCycles = %v", result["execTimeCycles"])
	}

	// An identical request is a pure cache hit: no new simulation.
	sims := s.cache.Stats().Sims
	post()
	if got := s.cache.Stats().Sims; got != sims {
		t.Errorf("repeat request simulated %d new runs", got-sims)
	}
	if st := s.cache.Stats(); st.MemHits == 0 {
		t.Errorf("no memory hit recorded: %+v", st)
	}
}

func TestRunEndpointValidation(t *testing.T) {
	_, ts := newTestServer(t)
	for _, body := range []string{
		`{"arch":"NOPE","workload":"uniform","pressure":50}`,
		`{"arch":"AS-COMA","workload":"nonexistent","pressure":50}`,
		`{"arch":"AS-COMA","workload":"uniform","pressure":0}`,
		`{"arch":"AS-COMA","workload":"uniform","pressure":100}`,
		// Negative or absurd knobs must be 400s, never silently simulated.
		`{"arch":"AS-COMA","workload":"uniform","pressure":50,"scale":-1}`,
		`{"arch":"AS-COMA","workload":"uniform","pressure":50,"scale":1000000}`,
		`{"arch":"AS-COMA","workload":"uniform","pressure":50,"maxCycles":-5}`,
		`{"arch":"AS-COMA","workload":"uniform","pressure":50,"maxCycles":9999999999999999999}`,
		`{"arch":"AS-COMA","workload":"uniform","pressure":50,"sampleInterval":-1}`,
		`{"arch":"AS-COMA","workload":"uniform","pressure":50,"sampleInterval":3}`,
		// Epoch streaming belongs to the async jobs endpoint.
		`{"arch":"AS-COMA","workload":"uniform","pressure":50,"epochInterval":5000}`,
		`not json`,
	} {
		resp, err := http.Post(ts.URL+"/api/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestFigureEndpoint(t *testing.T) {
	s, ts := newTestServer(t)
	url := ts.URL + "/api/v1/figure/uniform?scale=16&pressures=10,90&format=csv"
	get := func() string {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("figure: %d %s", resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/csv") {
			t.Errorf("content type %q", ct)
		}
		return string(body)
	}
	first := get()
	if !strings.HasPrefix(first, "config,total,") {
		t.Errorf("csv body: %q", first)
	}
	sims := s.cache.Stats().Sims
	if sims == 0 {
		t.Fatal("figure render hit an empty cache")
	}
	second := get()
	if got := s.cache.Stats().Sims; got != sims {
		t.Errorf("repeat figure simulated %d new runs", got-sims)
	}
	if first != second {
		t.Error("cached figure differs from fresh figure")
	}

	resp, err := http.Get(ts.URL + "/api/v1/figure/nonexistent")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown app: status %d, want 400", resp.StatusCode)
	}
}

// TestClientDisconnectIs499 drives handleRun with an already-cancelled
// request context — the client went away — and requires the 499 mapping
// plus the code-labelled error counter, with 504 kept for the server's
// own deadline.
func TestClientDisconnectIs499(t *testing.T) {
	s, _ := newTestServer(t)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/api/v1/run",
		strings.NewReader(`{"arch":"AS-COMA","workload":"uniform","pressure":70,"scale":32}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != StatusClientClosedRequest {
		t.Errorf("cancelled client: status %d, want %d", rec.Code, StatusClientClosedRequest)
	}

	// The cancellation is observable but lands under its own code, never
	// under 500.
	mreq := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	mrec := httptest.NewRecorder()
	s.Handler().ServeHTTP(mrec, mreq)
	body := mrec.Body.String()
	if !strings.Contains(body, `ascoma_request_errors_total{code="499"} 1`) {
		t.Errorf("metrics missing 499 counter:\n%s", body)
	}
	if strings.Contains(body, `ascoma_request_errors_total{code="500"}`) {
		t.Errorf("client disconnect polluted the 500 counter:\n%s", body)
	}
}

// TestMetricsPerServer builds two servers in one process and requires each
// /metrics to read its *own* cache: server-scoped registries, never a
// process-global one pinning every server to whichever registered first.
func TestMetricsPerServer(t *testing.T) {
	_, ts1 := newTestServer(t)
	_, ts2 := newTestServer(t)

	// Drive one simulation through server 1 only.
	resp, err := http.Post(ts1.URL+"/api/v1/run", "application/json",
		strings.NewReader(`{"arch":"CC-NUMA","workload":"uniform","pressure":70,"scale":32}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: %d", resp.StatusCode)
	}

	metrics := func(base string) string {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("metrics: %d", resp.StatusCode)
		}
		return string(body)
	}
	if m := metrics(ts1.URL); !strings.Contains(m, "\nascoma_runcache_sims_total 1\n") {
		t.Errorf("server 1 does not report its one simulation:\n%s", m)
	}
	if m := metrics(ts2.URL); !strings.Contains(m, "\nascoma_runcache_sims_total 0\n") {
		t.Errorf("server 2 does not report zero simulations (reads server 1's cache?):\n%s", m)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	// Drive one run so the request counters are live.
	resp, err := http.Post(ts.URL+"/api/v1/run", "application/json",
		strings.NewReader(`{"arch":"CC-NUMA","workload":"uniform","pressure":70,"scale":32}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	for _, want := range []string{
		"# TYPE ascoma_requests_total counter",
		`ascoma_requests_total{arch="CC-NUMA"} 1`,
		"ascoma_request_seconds_count 1",
		"ascoma_runcache_sims_total 1",
		"ascoma_runcache_remote_hits_total 0",
		"ascoma_inflight_runs 0",
		"ascoma_jobs_live 0",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

func postJob(t *testing.T, base, spec string) jobs.Status {
	t.Helper()
	resp, err := http.Post(base+"/api/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST jobs: %d %s", resp.StatusCode, body)
	}
	var st jobs.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("job submit response: %v: %s", err, body)
	}
	return st
}

func getStatus(t *testing.T, base, id string) jobs.Status {
	t.Helper()
	resp, err := http.Get(base + "/api/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job: %d %s", resp.StatusCode, body)
	}
	var st jobs.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("job status: %v: %s", err, body)
	}
	return st
}

func waitDone(t *testing.T, base, id string) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st := getStatus(t, base, id)
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func streamEvents(t *testing.T, base, id string) []jobs.Event {
	t.Helper()
	resp, err := http.Get(base + "/api/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("events: %d %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events content type %q", ct)
	}
	var evs []jobs.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var ev jobs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("event line: %v: %s", err, sc.Text())
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return evs
}

func TestJobRunLifecycle(t *testing.T) {
	_, ts := newTestServer(t)
	st := postJob(t, ts.URL, `{"run":{"arch":"AS-COMA","workload":"uniform","pressure":70,"scale":32}}`)
	if st.ID == "" || st.Kind != "run" {
		t.Fatalf("submitted status: %+v", st)
	}
	final := waitDone(t, ts.URL, st.ID)
	if final.State != jobs.StateDone {
		t.Fatalf("final: %+v", final)
	}
	res, ok := final.Result.(map[string]any)
	if !ok {
		t.Fatalf("result: %#v", final.Result)
	}
	inner, _ := res["result"].(map[string]any)
	if inner["arch"] != "AS-COMA" {
		t.Errorf("result arch: %v", inner["arch"])
	}

	// The event stream replays the full lifecycle after the fact.
	evs := streamEvents(t, ts.URL, st.ID)
	types := make([]string, len(evs))
	for i, ev := range evs {
		types[i] = ev.Type
		if ev.Seq != i {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
	}
	want := []string{"queued", "started", "cell", "done"}
	if fmt.Sprint(types) != fmt.Sprint(want) {
		t.Errorf("event types %v, want %v", types, want)
	}
}

func TestJobGridDeterministicAssembly(t *testing.T) {
	s, ts := newTestServer(t)
	spec := `{"grid":{"apps":["uniform"],"archs":["AS-COMA","S-COMA"],"pressures":[90,10],"scale":32}}`
	st := postJob(t, ts.URL, spec)
	final := waitDone(t, ts.URL, st.ID)
	if final.State != jobs.StateDone || final.CellsTotal != 4 || final.CellsDone != 4 {
		t.Fatalf("final: %+v", final)
	}
	cells, ok := final.Result.([]any)
	if !ok || len(cells) != 4 {
		t.Fatalf("grid result: %#v", final.Result)
	}
	// Spec order: arch-major, pressures ascending (10 before 90).
	var got []string
	for _, c := range cells {
		m := c.(map[string]any)
		got = append(got, fmt.Sprintf("%s/%v", m["arch"], m["pressure"]))
	}
	want := []string{"AS-COMA/10", "AS-COMA/90", "S-COMA/10", "S-COMA/90"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("cell order %v, want %v", got, want)
	}

	// Resubmitting the identical grid is a pure cache replay.
	sims := s.cache.Stats().Sims
	st2 := postJob(t, ts.URL, spec)
	if final2 := waitDone(t, ts.URL, st2.ID); final2.State != jobs.StateDone {
		t.Fatalf("replay: %+v", final2)
	}
	if got := s.cache.Stats().Sims; got != sims {
		t.Errorf("identical grid resimulated %d cells", got-sims)
	}
}

func TestJobEpochStreaming(t *testing.T) {
	s, ts := newTestServer(t)
	st := postJob(t, ts.URL, `{"run":{"arch":"AS-COMA","workload":"uniform","pressure":70,"scale":16,"epochInterval":5000}}`)
	final := waitDone(t, ts.URL, st.ID)
	if final.State != jobs.StateDone {
		t.Fatalf("final: %+v", final)
	}
	evs := streamEvents(t, ts.URL, st.ID)
	epochs := 0
	for _, ev := range evs {
		if ev.Type != "epoch" {
			continue
		}
		epochs++
		if ev.Epoch == nil || ev.Epoch.Nodes == 0 {
			t.Fatalf("epoch event without payload: %+v", ev)
		}
		if len(ev.Epoch.Series["free_pages"]) != ev.Epoch.Nodes {
			t.Fatalf("epoch series shape: %+v", ev.Epoch)
		}
	}
	if epochs == 0 {
		t.Error("no epoch events streamed")
	}

	// The observed run bypassed the cache read path but still filled it:
	// the same config now hits without simulating.
	sims := s.cache.Stats().Sims
	resp, err := http.Post(ts.URL+"/api/v1/run", "application/json",
		strings.NewReader(`{"arch":"AS-COMA","workload":"uniform","pressure":70,"scale":16}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up run: %d", resp.StatusCode)
	}
	if got := s.cache.Stats().Sims; got != sims {
		t.Errorf("observed run did not fill the cache: %d new sims", got-sims)
	}
}

func TestJobValidationAndNotFound(t *testing.T) {
	_, ts := newTestServer(t)
	for _, spec := range []string{
		`{}`,
		`{"run":{"arch":"AS-COMA","workload":"uniform","pressure":70},"grid":{"apps":["uniform"]}}`,
		`{"run":{"arch":"NOPE","workload":"uniform","pressure":70}}`,
		`{"run":{"arch":"AS-COMA","workload":"uniform","pressure":70,"scale":-2}}`,
		`{"grid":{"apps":["nonexistent"]}}`,
		`{"grid":{"apps":["uniform"],"pressures":[0]}}`,
		`{"figure":{"app":"uniform","format":"pdf"}}`,
	} {
		resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %q: status %d, want 400", spec, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/api/v1/jobs/j999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %d, want 404", resp.StatusCode)
	}
}

func TestJobCancel(t *testing.T) {
	// One sim slot and a long-running first job keep the second queued;
	// cancelling the queued job must terminate it without running it.
	s, ts := newTestServer(t, func(c *Config) {
		c.Jobs = 1
		c.JobOpts.MaxActive = 1
	})
	blocker := postJob(t, ts.URL, `{"run":{"arch":"AS-COMA","workload":"radix","pressure":70,"scale":4}}`)
	queued := postJob(t, ts.URL, `{"run":{"arch":"AS-COMA","workload":"uniform","pressure":70,"scale":32}}`)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("cancel: %d, want 202", resp.StatusCode)
	}
	final := waitDone(t, ts.URL, queued.ID)
	if final.State != jobs.StateCancelled {
		t.Errorf("cancelled job ended %s", final.State)
	}

	// The blocker is unaffected; cancel it too so the test exits fast.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/jobs/"+blocker.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
	waitDone(t, ts.URL, blocker.ID)
	_ = s
}

func TestJobAdmissionBound(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.Jobs = 1
		c.JobOpts.MaxJobs = 1
		c.JobOpts.MaxActive = 1
	})
	first := postJob(t, ts.URL, `{"run":{"arch":"AS-COMA","workload":"radix","pressure":70,"scale":4}}`)
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json",
		strings.NewReader(`{"run":{"arch":"AS-COMA","workload":"uniform","pressure":70,"scale":32}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("over-admission: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/jobs/"+first.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
	waitDone(t, ts.URL, first.ID)
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke covered by endpoint tests")
	}
	s := New(Config{Cache: runcache.NewWithBackends(64), Jobs: 4, Timeout: time.Minute})
	if err := Smoke(s); err != nil {
		t.Fatal(err)
	}
}

func TestPprofGating(t *testing.T) {
	// Off by default: the profiling endpoints must not be reachable.
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof disabled: GET /debug/pprof/ = %d, want 404", resp.StatusCode)
	}

	_, ts2 := newTestServer(t, func(c *Config) { c.Pprof = true })
	resp, err = http.Get(ts2.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Errorf("pprof enabled: GET /debug/pprof/ = %d %q", resp.StatusCode, body)
	}
}

func TestEstimateEndpoint(t *testing.T) {
	s, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/api/v1/estimate", "application/json",
		strings.NewReader(`{"workload":"uniform","scale":32,"archs":["CC-NUMA","AS-COMA"],"pressures":[10,70]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate: %d %s", resp.StatusCode, body)
	}
	var out struct {
		Workload    string `json:"workload"`
		Predictions []struct {
			Arch     string  `json:"arch"`
			Pressure int     `json:"pressure"`
			RelTime  float64 `json:"relTime"`
			ExecTime int64   `json:"execTimeCycles"`
		} `json:"predictions"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("estimate response not JSON: %v\n%s", err, body)
	}
	if out.Workload != "uniform" || len(out.Predictions) != 4 {
		t.Fatalf("want 4 uniform predictions, got %q x%d", out.Workload, len(out.Predictions))
	}
	for _, p := range out.Predictions {
		if p.ExecTime <= 0 || p.RelTime <= 0 {
			t.Errorf("%s(%d%%): non-positive prediction %+v", p.Arch, p.Pressure, p)
		}
	}
	// The CC-NUMA cell is its own baseline: relTime exactly 1.
	if got := out.Predictions[0]; got.Arch != "CC-NUMA" || got.RelTime != 1 {
		t.Errorf("first prediction %+v, want CC-NUMA relTime 1", got)
	}
	// Estimates never simulate.
	if sims := s.cache.Stats().Sims; sims != 0 {
		t.Errorf("estimate ran %d simulations, want 0", sims)
	}
}

func TestEstimateEndpointValidation(t *testing.T) {
	_, ts := newTestServer(t)
	for _, body := range []string{
		`{"workload":"nonexistent"}`,
		`{"workload":"uniform","archs":["NOPE"]}`,
		`{"workload":"uniform","pressures":[0]}`,
		`{"workload":"uniform","pressures":[100]}`,
		`{"workload":"uniform","scale":-1}`,
		`not json`,
	} {
		resp, err := http.Post(ts.URL+"/api/v1/estimate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestUnknownFieldsRejected pins that every endpoint taking a spec answers
// 400 to a body naming a field its spec lacks, here the memory-tier and
// page-policy fields older clients may still send. Decoding would drop
// them, and the reply would answer a flat spec the client did not ask for.
// Each body is valid without the extra field, so the field alone is what
// the server refuses.
func TestUnknownFieldsRejected(t *testing.T) {
	_, ts := newTestServer(t)
	const (
		tiers  = `"tiers":[{"capacityPct":100,"readCycles":50,"writeCycles":50}]`
		policy = `"pagePolicy":"open"`
	)
	run := `"arch":"AS-COMA","workload":"uniform","pressure":50,"scale":64`
	cases := []struct{ path, valid, body string }{
		{"/api/v1/run", `{` + run + `}`, `{` + run + `,` + tiers + `}`},
		{"/api/v1/run", `{` + run + `}`, `{` + run + `,` + policy + `}`},
		{"/api/v1/estimate", `{"workload":"uniform","scale":64}`, `{"workload":"uniform","scale":64,` + tiers + `}`},
		{"/api/v1/estimate", `{"workload":"uniform","scale":64}`, `{"workload":"uniform","scale":64,` + policy + `}`},
		{"/api/v1/jobs", `{"run":{` + run + `}}`, `{"run":{` + run + `,` + tiers + `}}`},
		{"/api/v1/jobs", `{"run":{` + run + `}}`, `{"run":{` + run + `,` + policy + `}}`},
		{"/api/v1/jobs", `{"grid":{"apps":["uniform"],"pressures":[50],"scale":64}}`, `{"grid":{"apps":["uniform"],"pressures":[50],"scale":64,` + tiers + `}}`},
		{"/api/v1/jobs", `{"grid":{"apps":["uniform"],"pressures":[50],"scale":64}}`, `{"grid":{"apps":["uniform"],"pressures":[50],"scale":64,` + policy + `}}`},
		{"/api/v1/jobs", `{"figure":{"app":"uniform","pressures":[50],"scale":64}}`, `{"figure":{"app":"uniform","pressures":[50],"scale":64,` + tiers + `}}`},
		{"/api/v1/jobs", `{"figure":{"app":"uniform","pressures":[50],"scale":64}}`, `{"figure":{"app":"uniform","pressures":[50],"scale":64,` + policy + `}}`},
		{"/api/v1/jobs", `{"run":{` + run + `}}`, `{"run":{` + run + `},"tierGrid":{"app":"uniform"}}`},
		{"/api/v1/jobs", `{"figure":{"app":"uniform","pressures":[50],"scale":64}}`, `{"tierGrid":{"app":"uniform","pressures":[50],"scale":64}}`},
	}
	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, c := range cases {
		if code := post(c.path, c.valid); code >= 400 {
			t.Errorf("%s %s: status %d; the control body must be accepted", c.path, c.valid, code)
		}
		if code := post(c.path, c.body); code != http.StatusBadRequest {
			t.Errorf("%s %s: status %d, want 400", c.path, c.body, code)
		}
	}
}
