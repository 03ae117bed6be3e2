package serve

// Stored replies: a repeated /run or /estimate request is answered with the
// bytes encoded for its first answer. These tests pin that the stored
// bytes are exactly what a fresh encode produces, that they never cross
// from one request to another, and that failures store nothing.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ascoma"
	"ascoma/internal/estimate"
	"ascoma/internal/jobs"
	"ascoma/internal/runcache"
	"ascoma/internal/stats"
)

// post sends body to path and returns the 200 reply, checking its
// Content-Length header.
func post(t testing.TB, base, path, body string) []byte {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: %d %s", path, body, resp.StatusCode, b)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(b)) {
		t.Errorf("%s: Content-Length %q for a %d-byte body", path, cl, len(b))
	}
	return b
}

// status sends body to path and returns the status code.
func status(t *testing.T, base, path, body string) int {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// runReply is the in-process /run reply for cfg: the result's report as
// json.NewEncoder would write it.
func runReply(t *testing.T, cfg ascoma.Config) []byte {
	t.Helper()
	res, err := ascoma.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(jobs.RunResult{Result: stats.Report(res.Machine), Samples: res.Samples})
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// estimateReply is the in-process /estimate reply for spec.
func estimateReply(t *testing.T, spec jobs.EstimateSpec) []byte {
	t.Helper()
	preds, err := spec.Predictions()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(struct {
		Workload    string                `json:"workload"`
		Predictions []estimate.Prediction `json:"predictions"`
	}{spec.Workload, preds})
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

func runSpecBody(arch string, pressure int) string {
	return fmt.Sprintf(`{"arch":%q,"workload":"uniform","pressure":%d,"scale":32,"sampleInterval":20000}`, arch, pressure)
}

func runCfg(arch ascoma.Arch, pressure int) ascoma.Config {
	return ascoma.Config{Arch: arch, Workload: "uniform", Pressure: pressure, Scale: 32, SampleInterval: 20000}
}

func TestRunReplyRepeatIdentical(t *testing.T) {
	s, ts := newTestServer(t)
	want := runReply(t, runCfg(ascoma.ASCOMA, 70))
	first := post(t, ts.URL, "/api/v1/run", runSpecBody("AS-COMA", 70))
	again := post(t, ts.URL, "/api/v1/run", runSpecBody("as_coma", 70))
	if !bytes.Equal(first, want) {
		t.Errorf("first reply differs from the in-process encoding:\n got %.200s\nwant %.200s", first, want)
	}
	if !bytes.Equal(again, first) {
		t.Errorf("repeat reply differs from the first:\n got %.200s\nwant %.200s", again, first)
	}
	if st := s.cache.Stats(); st.Sims != 1 || st.MemHits != 1 {
		t.Errorf("cache %v, want one simulation and one hit", st)
	}
}

func TestEstimateReplyRepeatIdentical(t *testing.T) {
	s, ts := newTestServer(t)
	spec := jobs.EstimateSpec{Workload: "uniform", Scale: 32, Archs: []string{"AS-COMA", "CC-NUMA"}, Pressures: []int{70, 10}}
	want := estimateReply(t, spec)
	first := post(t, ts.URL, "/api/v1/estimate", `{"workload":"uniform","scale":32,"archs":["AS-COMA","CC-NUMA"],"pressures":[70,10]}`)
	// The same predictions, spelled differently: one stored reply.
	again := post(t, ts.URL, "/api/v1/estimate", `{"workload":"uniform","scale":32,"archs":["ascoma","CCNUMA","as-coma"],"pressures":[10,70,10]}`)
	if !bytes.Equal(first, want) {
		t.Errorf("first reply differs from the in-process encoding:\n got %.200s\nwant %.200s", first, want)
	}
	if !bytes.Equal(again, first) {
		t.Errorf("repeat reply differs from the first:\n got %.200s\nwant %.200s", again, first)
	}
	if n := len(s.estReplies.m); n != 1 {
		t.Errorf("estimate table holds %d replies, want 1", n)
	}
	// Every request counts, stored reply or not.
	if got := s.estimates.Value(); got != 2 {
		t.Errorf("ascoma_estimates_total = %d, want 2", got)
	}
}

// TestRunReplyAcrossEviction drives a one-entry runcache through A, B, A:
// B evicts A (and A's stored bytes), and the second A reply must be A's,
// never B's.
func TestRunReplyAcrossEviction(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) { c.Cache = runcache.NewWithBackends(1) })
	a := post(t, ts.URL, "/api/v1/run", runSpecBody("AS-COMA", 70))
	b := post(t, ts.URL, "/api/v1/run", runSpecBody("CC-NUMA", 30))
	a2 := post(t, ts.URL, "/api/v1/run", runSpecBody("AS-COMA", 70))
	if bytes.Equal(a, b) {
		t.Fatal("A and B replies are identical; the test cannot tell them apart")
	}
	if !bytes.Equal(a2, a) {
		t.Errorf("A after eviction differs from the first A reply:\n got %.200s\nwant %.200s", a2, a)
	}
	if !bytes.Equal(b, runReply(t, runCfg(ascoma.CCNUMA, 30))) {
		t.Error("B reply differs from the in-process encoding")
	}
	if st := s.cache.Stats(); st.Sims != 3 {
		t.Errorf("cache %v, want three simulations (A re-simulates after eviction)", st)
	}
}

func TestFailuresStoreNothing(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) { c.Timeout = time.Nanosecond })
	if code := status(t, ts.URL, "/api/v1/run", runSpecBody("AS-COMA", 70)); code != http.StatusGatewayTimeout {
		t.Fatalf("run past its deadline: status %d, want 504", code)
	}
	if n := s.cache.Len(); n != 0 {
		t.Errorf("failed run left %d cache entries", n)
	}
	for _, body := range []string{`{"workload":"nonexistent"}`, `{"workload":"uniform","pressures":[0]}`} {
		if code := status(t, ts.URL, "/api/v1/estimate", body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", body, code)
		}
	}
	if n := len(s.estReplies.m); n != 0 {
		t.Errorf("400 estimates stored %d replies", n)
	}
	if got := s.estimates.Value(); got != 0 {
		t.Errorf("ascoma_estimates_total = %d after only 400s, want 0", got)
	}
}

func TestEstimateTableEmptiesAtBudget(t *testing.T) {
	var tab replyTable
	body := make([]byte, 64<<10)
	key := func(i int) []byte { return []byte(fmt.Sprintf("spec-%04d", i)) }
	perEntry := len(key(0)) + len(body)
	fit := estimateReplyBudget / perEntry
	for i := 0; i < fit; i++ {
		tab.put(key(i), body)
	}
	if len(tab.m) != fit || tab.get(key(0)) == nil {
		t.Fatalf("table holds %d of %d entries under its budget", len(tab.m), fit)
	}
	tab.put(key(fit), body) // would exceed the budget: empties first
	if len(tab.m) != 1 || tab.bytes != perEntry || tab.get(key(fit)) == nil || tab.get(key(0)) != nil {
		t.Errorf("after the over-budget insert: %d entries, %d bytes; want only the new entry", len(tab.m), tab.bytes)
	}
	tab.put([]byte("huge"), make([]byte, estimateReplyBudget))
	if tab.get([]byte("huge")) != nil || len(tab.m) != 1 {
		t.Error("a reply larger than the whole budget was stored")
	}
}

// TestConcurrentRepeatsShareReplies sends the same run and estimate
// requests from many goroutines; every reply must equal the in-process
// encoding. Run it under -race.
func TestConcurrentRepeatsShareReplies(t *testing.T) {
	_, ts := newTestServer(t)
	const n = 8
	wantRun := runReply(t, runCfg(ascoma.RNUMA, 50))
	estSpec := `{"workload":"uniform","scale":32}`
	wantEst := estimateReply(t, jobs.EstimateSpec{Workload: "uniform", Scale: 32})
	var wg sync.WaitGroup
	errs := make(chan error, 4*n)
	for i := 0; i < n; i++ {
		for _, req := range []struct {
			path, body string
			want       []byte
		}{
			{"/api/v1/run", runSpecBody("R-NUMA", 50), wantRun},
			{"/api/v1/estimate", estSpec, wantEst},
		} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < 2; k++ {
					resp, err := http.Post(ts.URL+req.path, "application/json", strings.NewReader(req.body))
					if err != nil {
						errs <- err
						return
					}
					got, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil {
						errs <- err
						return
					}
					if !bytes.Equal(got, req.want) {
						errs <- fmt.Errorf("%s: reply %.120s differs from the in-process encoding", req.path, got)
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// trailingDataIs400 requires a valid spec followed by a second JSON value
// to be rejected, while the same spec with trailing whitespace is not.
func trailingDataIs400(t *testing.T, path, spec string, ok int) {
	t.Helper()
	_, ts := newTestServer(t)
	if code := status(t, ts.URL, path, spec+`{"x":1}`); code != http.StatusBadRequest {
		t.Errorf("spec plus trailing value: status %d, want 400", code)
	}
	if code := status(t, ts.URL, path, spec+` garbage`); code != http.StatusBadRequest {
		t.Errorf("spec plus trailing garbage: status %d, want 400", code)
	}
	if code := status(t, ts.URL, path, spec+" \n\t"); code != ok {
		t.Errorf("spec plus trailing whitespace: status %d, want %d", code, ok)
	}
}

func TestRunEndpointTrailingData(t *testing.T) {
	trailingDataIs400(t, "/api/v1/run", runSpecBody("AS-COMA", 70), http.StatusOK)
}

func TestEstimateEndpointTrailingData(t *testing.T) {
	trailingDataIs400(t, "/api/v1/estimate", `{"workload":"uniform","scale":32}`, http.StatusOK)
}

func TestJobSubmitTrailingData(t *testing.T) {
	trailingDataIs400(t, "/api/v1/jobs", `{"run":`+runSpecBody("AS-COMA", 70)+`}`, http.StatusAccepted)
}
