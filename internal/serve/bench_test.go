package serve

// In-process HTTP benchmarks of the request paths the serve workload
// spends its time on. Run them with
//
//	go test -run '^$' -bench BenchmarkServe -benchtime 2000x ./internal/serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ascoma/internal/runcache"
)

// benchServer starts a Server on an httptest loopback listener and
// returns its base URL.
func benchServer(b *testing.B) string {
	b.Helper()
	s := New(Config{Cache: runcache.NewWithBackends(64), Jobs: 2, Timeout: time.Minute})
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(func() { ts.Close(); s.Close() })
	return ts.URL
}

// benchPost sends one request and drains the 200 reply.
func benchPost(b *testing.B, c *http.Client, url, body string) {
	resp, err := c.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		b.Fatalf("%s: status %d, err %v", url, resp.StatusCode, err)
	}
}

// BenchmarkServeRunHit is a /run request whose result is already cached.
func BenchmarkServeRunHit(b *testing.B) {
	base := benchServer(b)
	c := &http.Client{}
	const spec = `{"arch":"AS-COMA","workload":"barnes","pressure":50,"scale":64}`
	benchPost(b, c, base+"/api/v1/run", spec)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, c, base+"/api/v1/run", spec)
	}
}

// BenchmarkServeEstimateRepeat is a default-axis /estimate request the
// server has answered before.
func BenchmarkServeEstimateRepeat(b *testing.B) {
	base := benchServer(b)
	c := &http.Client{}
	const spec = `{"workload":"barnes","scale":64}`
	benchPost(b, c, base+"/api/v1/estimate", spec)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, c, base+"/api/v1/estimate", spec)
	}
}

// BenchmarkServeEstimateCold is an /estimate request for a spec never
// sent before: each iteration asks for a distinct pressure triple.
func BenchmarkServeEstimateCold(b *testing.B) {
	base := benchServer(b)
	c := &http.Client{}
	specs := make([]string, 0, b.N)
	for p := 1; p <= 99 && len(specs) < b.N; p++ {
		for q := p + 1; q <= 99 && len(specs) < b.N; q++ {
			for r := q + 1; r <= 99 && len(specs) < b.N; r++ {
				specs = append(specs, fmt.Sprintf(`{"workload":"barnes","scale":64,"pressures":[%d,%d,%d]}`, p, q, r))
			}
		}
	}
	if len(specs) < b.N {
		b.Fatalf("only %d distinct specs for %d iterations", len(specs), b.N)
	}
	benchPost(b, c, base+"/api/v1/estimate", `{"workload":"barnes","scale":64}`) // build the profile
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, c, base+"/api/v1/estimate", specs[i])
	}
}
