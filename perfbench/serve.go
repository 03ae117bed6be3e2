package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ascoma"
	"ascoma/internal/estimate"
	"ascoma/internal/jobs"
	"ascoma/internal/machine"
	"ascoma/internal/report"
	"ascoma/internal/runcache"
	"ascoma/internal/serve"
	"ascoma/internal/stats"
)

// Serve workload shape. The repository has no request logs or usage data,
// so the mix is an assumed synthetic one, each share chosen for a stated
// reason rather than measured. Each pass sends one seeded sequence:
//   - a fresh run of every (application, architecture) pair, so every pair
//     is covered once, at a pressure drawn uniformly from the Figure 2/3
//     axis (servePressures);
//   - as many repeats of runs already sent: a repeat share of exactly one
//     half makes runcache's hit ratio 0.5 by construction, a value the
//     traced run can check, and weighs cache fills and hits equally;
//   - one estimate request per run request: with no data on how the two
//     endpoints are used, equal shares is the neutral choice.
//
// Scale 64 keeps each simulation to a few milliseconds, so the service's
// own layers (serve, runcache, estimate, JSON) stay on the critical path.
const (
	serveClients    = 2
	serveScale      = 64
	estimatesPerRun = 1
)

var servePressures = []int{10, 30, 50, 70, 90}

// Request kinds, also the span names of their latencies.
const (
	kindEstimate = "serve.estimate"
	kindRunMiss  = "serve.run_miss" // first request for a config in the pass
	kindRunHit   = "serve.run_hit"  // repeat: a cache hit or a wait on the in-flight fill
)

type request struct {
	kind string
	path string
	body []byte
	cfg  ascoma.Config // run requests
	app  string        // estimate requests
}

// servePool lists every config a serve sequence can draw; each is pinned.
func servePool() []ascoma.Config {
	var out []ascoma.Config
	for _, app := range report.FigureApps(0) {
		for _, a := range ascoma.Archs() {
			for _, p := range servePressures {
				out = append(out, ascoma.Config{Arch: a, Workload: app, Pressure: p, Scale: serveScale})
			}
		}
	}
	return out
}

// serveSequence draws the request sequence for a seed: fresh runs of
// every application × architecture pair (seeded pressure), the same
// number of repeats, each of a config sent earlier, and estimatesPerRun
// estimates per run request spread evenly over the applications, all in
// seeded order.
func serveSequence(seed uint64) []request {
	rng := rand.New(rand.NewPCG(seed, 0x5e7e))
	apps := report.FigureApps(0)
	var fresh []ascoma.Config
	for _, app := range apps {
		for _, a := range ascoma.Archs() {
			p := servePressures[rng.IntN(len(servePressures))]
			fresh = append(fresh, ascoma.Config{Arch: a, Workload: app, Pressure: p, Scale: serveScale})
		}
	}
	rng.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })

	kinds := make([]string, 0, len(fresh)*2*(1+estimatesPerRun))
	for range fresh {
		kinds = append(kinds, kindRunMiss, kindRunHit)
		for k := 0; k < 2*estimatesPerRun; k++ {
			kinds = append(kinds, kindEstimate)
		}
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	// A repeat needs an earlier fresh run: move the first fresh run ahead
	// of any repeat that precedes it.
	for i, k := range kinds {
		if k == kindRunMiss {
			break
		}
		if k == kindRunHit {
			for j := i + 1; ; j++ {
				if kinds[j] == kindRunMiss {
					kinds[i], kinds[j] = kinds[j], kinds[i]
					break
				}
			}
			break
		}
	}

	reqs := make([]request, len(kinds))
	var sent []ascoma.Config
	est := 0
	for i, k := range kinds {
		r := request{kind: k}
		switch k {
		case kindRunMiss:
			r.cfg = fresh[len(sent)]
			sent = append(sent, r.cfg)
		case kindRunHit:
			r.cfg = sent[rng.IntN(len(sent))]
		case kindEstimate:
			r.app = apps[est%len(apps)]
			est++
		}
		if k == kindEstimate {
			r.path = "/api/v1/estimate"
			r.body, _ = json.Marshal(jobs.EstimateSpec{Workload: r.app, Scale: serveScale})
		} else {
			r.path = "/api/v1/run"
			r.body, _ = json.Marshal(jobs.RunSpec{Arch: r.cfg.Arch.String(), Workload: r.cfg.Workload,
				Pressure: r.cfg.Pressure, Scale: r.cfg.Scale})
		}
		reqs[i] = r
	}
	return reqs
}

// serveLoad drives one in-process serve.Server over loopback HTTP with a
// closed loop of serveClients clients: each sends its next request only
// when the previous reply has been read. Every pass gets a fresh server
// and result cache behind one long-lived listener, so each pass starts
// cold and the clients keep their two connections.
type serveLoad struct {
	reqs []request
	pins pins

	hs      *http.Server
	served  chan error
	handler atomic.Value // holder
	client  *http.Client
	base    string

	mu       sync.Mutex
	first    [][]byte                  // first body seen per request index
	expected [][]byte                  // canonical in-process output per request index
	results  map[string]*stats.Machine // in-process statistics per run config
	wrong    map[string]error          // run configs whose statistics miss their pin
}

// holder gives atomic.Value one concrete type for every pass's handler.
type holder struct{ h http.Handler }

func newServeLoad(seed uint64, p pins) *serveLoad {
	s := &serveLoad{reqs: serveSequence(seed), pins: p}
	s.first = make([][]byte, len(s.reqs))
	return s
}

func (s *serveLoad) setup(sp *spans) error {
	for _, app := range report.FigureApps(0) {
		gen, err := compileWorkload(sp, app, serveScale)
		if err != nil {
			return err
		}
		m, err := machine.New(machineConfig(ascoma.Config{Arch: ascoma.ASCOMA, Pressure: 50}), gen)
		if err != nil {
			return err
		}
		m.Release()
		// The estimator's structural profile is built on first use.
		if _, err := (jobs.EstimateSpec{Workload: app, Scale: serveScale}).Predictions(); err != nil {
			return err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.handler.Store(holder{http.NotFoundHandler()})
	s.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.handler.Load().(holder).h.ServeHTTP(w, r)
	})}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients},
	}
	return nil
}

func (s *serveLoad) close() {
	if s.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		s.hs.Close()
	}
	<-s.served
	s.client.CloseIdleConnections()
	s.hs = nil
}

// prepare computes, in process, the output every request must return: the
// run result of its config (whose statistics must match the pin) or the
// estimator's predictions, each in canonical JSON.
func (s *serveLoad) prepare() error {
	s.expected = make([][]byte, len(s.reqs))
	s.results = map[string]*stats.Machine{}
	s.wrong = map[string]error{}
	byKey := map[string][]byte{}
	for i, r := range s.reqs {
		key := r.app
		if r.kind != kindEstimate {
			key = cfgKey(r.cfg)
		}
		if b, ok := byKey[key]; ok {
			s.expected[i] = b
			continue
		}
		var v any
		if r.kind == kindEstimate {
			preds, err := (jobs.EstimateSpec{Workload: r.app, Scale: serveScale}).Predictions()
			if err != nil {
				return err
			}
			v = estimateBody{Workload: r.app, Predictions: preds}
		} else {
			res, err := ascoma.Run(r.cfg)
			if err != nil {
				return err
			}
			if err := s.pins.check(key, statsChecksum(res.Machine)); err != nil {
				s.wrong[key] = err
			}
			s.results[key] = res.Machine
			v = jobs.RunResult{Result: stats.Report(res.Machine), Samples: res.Samples}
		}
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		byKey[key], s.expected[i] = b, b
	}
	return nil
}

// estimateBody is the shape of a POST /api/v1/estimate reply.
type estimateBody struct {
	Workload    string                `json:"workload"`
	Predictions []estimate.Prediction `json:"predictions"`
}

func (s *serveLoad) pass(ph *phase) (time.Duration, error) {
	cache, err := runcache.New(len(s.reqs), "")
	if err != nil {
		return 0, err
	}
	srv := serve.New(serve.Config{Cache: cache, Jobs: serveClients, Cores: 1, Timeout: time.Minute})
	defer srv.Close()
	s.handler.Store(holder{srv.Handler()})
	if ph.served == nil {
		ph.served = make([]int64, len(s.reqs))
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	root := ph.sp.begin("pass", -1)
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(s.reqs); i = int(next.Add(1) - 1) {
				s.do(ph, root, i)
			}
		}()
	}
	wg.Wait()
	d := time.Since(start)
	ph.sp.end(root)
	ph.addRuncache(cache.Stats())
	if ph.sp != nil {
		var cfgs []ascoma.Config
		for _, r := range s.reqs {
			if r.kind == kindRunMiss {
				cfgs = append(cfgs, r.cfg)
			}
		}
		if err := probeArena(ph, cfgs); err != nil {
			return 0, err
		}
	}
	return d, nil
}

// do sends request i, times it from send to the last byte of the reply,
// and checks the reply is byte-identical to the first reply seen for the
// same request (finish checks that one against the in-process output).
func (s *serveLoad) do(ph *phase, root, i int) {
	r := s.reqs[i]
	sp := ph.sp.begin(r.kind, root)
	start := time.Now()
	body, err := s.post(r)
	d := time.Since(start)
	ph.sp.end(sp)
	ph.op(d)
	if err == nil {
		s.mu.Lock()
		if s.first[i] == nil {
			s.first[i] = body
		} else if !bytes.Equal(body, s.first[i]) {
			err = fmt.Errorf("request %d (%s %s): reply differs from an earlier reply", i, r.path, r.body)
		}
		s.mu.Unlock()
	}
	if err == nil {
		ph.mu.Lock()
		ph.served[i]++
		ph.mu.Unlock()
	}
	ph.record(err)
}

func (s *serveLoad) post(r request) ([]byte, error) {
	resp, err := s.client.Post(s.base+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", r.path, r.body, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// finish checks each request's reply against the in-process output and
// charges the phase with the simulations behind its passes: one per
// fresh run request per pass.
func (s *serveLoad) finish(ph *phase) error {
	for i, r := range s.reqs {
		if ph.served[i] > 0 {
			err := s.wrong[cfgKey(r.cfg)]
			if r.kind == kindEstimate {
				err = nil
			}
			if err == nil {
				err = sameJSON(s.first[i], s.expected[i], r.kind == kindEstimate)
			}
			if err != nil {
				ph.fail(ph.served[i], fmt.Errorf("request %d (%s %s): %w", i, r.path, r.body, err))
			}
		}
		if r.kind == kindRunMiss {
			for range ph.passes {
				ph.addRun(s.results[cfgKey(r.cfg)], nil)
			}
		}
	}
	return nil
}

// sameJSON reports whether a reply decodes to the expected value: the
// reply is decoded into the handler's result type and re-encoded
// canonically, so only the values are compared, not the formatting.
func sameJSON(reply, want []byte, isEstimate bool) error {
	var v any = &jobs.RunResult{}
	if isEstimate {
		v = &estimateBody{}
	}
	if err := json.Unmarshal(reply, v); err != nil {
		return fmt.Errorf("undecodable reply: %w", err)
	}
	got, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return errors.New("reply differs from the in-process result")
	}
	return nil
}
