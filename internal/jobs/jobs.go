package jobs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"

	"ascoma"
	"ascoma/internal/obs"
	"ascoma/internal/report"
	"ascoma/internal/runcache"
	"ascoma/internal/stats"
)

// ErrBusy is returned by Submit when the manager's admission bound is
// reached; the HTTP layer maps it to 503 + Retry-After.
var ErrBusy = errors.New("jobs: queue full")

// ErrClosed is returned by Submit once the manager is closed. Submit
// validates a spec before it checks, so a closed manager still sorts
// specs into invalid (a ValidationError) and admissible (ErrClosed).
var ErrClosed = errors.New("jobs: manager closed")

// State is a job's lifecycle phase.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Event is one entry of a job's ordered event log — what GET
// /api/v1/jobs/{id}/events streams as NDJSON. Seq is the entry's index;
// clients resume a dropped stream with ?from=<seq>.
type Event struct {
	Seq   int         `json:"seq"`
	Type  string      `json:"type"` // queued|started|cell|epoch|done|failed|cancelled
	Cell  *CellEvent  `json:"cell,omitempty"`
	Epoch *EpochEvent `json:"epoch,omitempty"`
	Error string      `json:"error,omitempty"`
}

// CellEvent reports one completed grid cell (or, for figure jobs, the
// running done/total counts with Index -1 — the report layer exposes
// progress, not cell identity).
type CellEvent struct {
	Index    int    `json:"index"`
	Arch     string `json:"arch,omitempty"`
	Workload string `json:"workload,omitempty"`
	Pressure int    `json:"pressure,omitempty"`
	Done     int    `json:"done"`
	Total    int    `json:"total"`
	// ExecTimeCycles is the cell's simulated execution time.
	ExecTimeCycles int64 `json:"execTimeCycles,omitempty"`
}

// EpochEvent is one completed epoch-probe row of an observed run: every
// per-node series of internal/obs at one simulated-cycle stamp. Rows are
// emitted in epoch order from a deterministic point of the event order,
// so the stream itself is reproducible run-to-run.
type EpochEvent struct {
	Epoch  int                `json:"epoch"`
	Cycle  int64              `json:"cycle"`
	Nodes  int                `json:"nodes"`
	Series map[string][]int64 `json:"series"` // probe name -> one value per node
}

// RunResult is a run job's (and POST /api/v1/run's) result payload.
type RunResult struct {
	Result  stats.JSONReport `json:"result"`
	Samples []ascoma.Sample  `json:"samples,omitempty"`
}

// CellResult is one assembled grid cell. Grid results are always in spec
// order (app-major, arch, then ascending pressure), independent of
// completion order.
type CellResult struct {
	Arch     string           `json:"arch"`
	Workload string           `json:"workload"`
	Pressure int              `json:"pressure"`
	Result   stats.JSONReport `json:"result"`
}

// Status is a job snapshot — the GET /api/v1/jobs/{id} body. Result is
// populated only in StateDone: a RunResult, a []CellResult, or the
// rendered figure document.
type Status struct {
	ID         string `json:"id"`
	Kind       string `json:"kind"`
	State      State  `json:"state"`
	CellsDone  int    `json:"cellsDone"`
	CellsTotal int    `json:"cellsTotal"`
	Events     int    `json:"events"`
	Error      string `json:"error,omitempty"`
	Result     any    `json:"result,omitempty"`
}

// Job is one submitted unit of work. All exported methods are safe for
// concurrent use.
type Job struct {
	id   string
	kind string
	spec Spec

	cancel context.CancelFunc

	mu        sync.Mutex
	state     State
	cellsDone int
	cellsTot  int
	err       error
	result    any
	events    []Event
	notify    chan struct{} // closed+replaced on every append
	cancelled bool          // Cancel was called (vs. a cell's own failure)
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Status returns a snapshot.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID: j.id, Kind: j.kind, State: j.state,
		CellsDone: j.cellsDone, CellsTotal: j.cellsTot,
		Events: len(j.events),
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.state == StateDone {
		st.Result = j.result
	}
	return st
}

// Cancel aborts the job: queued jobs finish cancelled without running,
// running jobs abandon outstanding cells. Terminal jobs are unaffected.
func (j *Job) Cancel() { j.cancel() }

// Events returns the log entries from seq `from` onward that exist right
// now, plus whether the job is terminal (no further entries will appear).
func (j *Job) Events(from int) ([]Event, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < 0 {
		from = 0
	}
	if from > len(j.events) {
		from = len(j.events)
	}
	evs := make([]Event, len(j.events)-from)
	copy(evs, j.events[from:])
	return evs, j.state.Terminal()
}

// Wait blocks until the log holds entries at or past seq `from`, then
// returns them. It returns io.EOF once the job is terminal and the log is
// drained, and ctx.Err() if the subscriber's context ends first.
func (j *Job) Wait(ctx context.Context, from int) ([]Event, error) {
	for {
		j.mu.Lock()
		if from < len(j.events) {
			evs := make([]Event, len(j.events)-from)
			copy(evs, j.events[from:])
			j.mu.Unlock()
			return evs, nil
		}
		if j.state.Terminal() {
			j.mu.Unlock()
			return nil, io.EOF
		}
		ch := j.notify
		j.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// emit appends one event and wakes subscribers. The Seq field is set here.
func (j *Job) emit(ev Event) {
	j.mu.Lock()
	ev.Seq = len(j.events)
	j.events = append(j.events, ev)
	close(j.notify)
	j.notify = make(chan struct{})
	j.mu.Unlock()
}

// Options configures a Manager. The zero value selects the defaults.
type Options struct {
	// MaxJobs bounds admitted-but-unfinished jobs; Submit beyond it
	// returns ErrBusy. Default 4096.
	MaxJobs int
	// MaxActive bounds concurrently executing jobs; admitted jobs beyond
	// it wait queued. The runner's own semaphore bounds simulations — this
	// bounds coordination fan-out. Default 256.
	MaxActive int
	// MaxCells bounds one grid job's expansion. Default 4096.
	MaxCells int
	// Retain bounds terminal jobs kept for polling; older ones are
	// forgotten oldest-first. Default 1024.
	Retain int
}

func (o Options) withDefaults() Options {
	if o.MaxJobs < 1 {
		o.MaxJobs = 4096
	}
	if o.MaxActive < 1 {
		o.MaxActive = 256
	}
	if o.MaxCells < 1 {
		o.MaxCells = 4096
	}
	if o.Retain < 1 {
		o.Retain = 1024
	}
	return o
}

// Manager owns the job table and shards work across one shared
// runcache.Runner — the same pool and content-addressed cache the
// synchronous endpoints use, so async cells dedupe against synchronous
// requests and against every peer sharing the cache backend.
type Manager struct {
	runner *runcache.Runner
	opts   Options

	ctx   context.Context // parent of every job; Close cancels it
	stop  context.CancelFunc
	slots chan struct{} // MaxActive tokens

	mu       sync.Mutex
	jobs     map[string]*Job
	finished []string // terminal job ids, oldest first (retention ring)
	live     int      // queued + running
	seq      int
}

// NewManager returns a manager executing on runner.
func NewManager(runner *runcache.Runner, opts Options) *Manager {
	opts = opts.withDefaults()
	ctx, stop := context.WithCancel(context.Background())
	return &Manager{
		runner: runner,
		opts:   opts,
		ctx:    ctx,
		stop:   stop,
		slots:  make(chan struct{}, opts.MaxActive),
		jobs:   make(map[string]*Job),
	}
}

// Close cancels every live job and rejects future submissions.
func (m *Manager) Close() { m.stop() }

// Get returns the job with the given id, or nil.
func (m *Manager) Get(id string) *Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.jobs[id]
}

// Live returns the number of queued-or-running jobs (the admission load).
func (m *Manager) Live() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.live
}

// Publish registers the manager's gauges on reg.
func (m *Manager) Publish(reg *obs.Registry) {
	reg.NewGaugeFunc("ascoma_jobs_live",
		"Jobs admitted and not yet terminal (queued + running).",
		func() float64 { return float64(m.Live()) })
	reg.NewGaugeFunc("ascoma_jobs_capacity",
		"Admission bound on live jobs (Submit beyond it is rejected).",
		func() float64 { return float64(m.opts.MaxJobs) })
}

// Submit validates the spec, admits the job, and starts it. The returned
// job is already observable (queued) when Submit returns. Validation
// failures are ValidationErrors; a full queue is ErrBusy; a closed manager
// is ErrClosed.
func (m *Manager) Submit(spec Spec) (*Job, error) {
	if err := spec.validateShape(); err != nil {
		return nil, err
	}
	// Expand and validate before admission, so a bad spec never occupies
	// a slot.
	var (
		cells  []ascoma.Config
		total  int
		runner func(j *Job, ctx context.Context) (any, error)
	)
	switch {
	case spec.Run != nil:
		cfg, err := spec.Run.Config()
		if err != nil {
			return nil, err
		}
		total = 1
		epoch := spec.Run.EpochInterval
		runner = func(j *Job, ctx context.Context) (any, error) {
			return m.runOne(j, ctx, cfg, epoch)
		}
	case spec.Grid != nil:
		var err error
		cells, err = spec.Grid.cells(m.opts.MaxCells)
		if err != nil {
			return nil, err
		}
		total = len(cells)
		runner = func(j *Job, ctx context.Context) (any, error) {
			return m.runGrid(j, ctx, cells)
		}
	case spec.Figure != nil:
		if err := spec.Figure.validate(); err != nil {
			return nil, err
		}
		fig := *spec.Figure
		total = len(report.FigureCells(fig.App, fig.Scale, fig.Pressures))
		runner = func(j *Job, ctx context.Context) (any, error) {
			return m.runFigure(j, ctx, fig)
		}
	}

	m.mu.Lock()
	if m.ctx.Err() != nil {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	if m.live >= m.opts.MaxJobs {
		m.mu.Unlock()
		return nil, ErrBusy
	}
	m.seq++
	jctx, cancel := context.WithCancel(m.ctx)
	j := &Job{
		id:       fmt.Sprintf("j%06d", m.seq),
		kind:     spec.Kind(),
		spec:     spec,
		cancel:   cancel,
		state:    StateQueued,
		cellsTot: total,
		notify:   make(chan struct{}),
	}
	m.jobs[j.id] = j
	m.live++
	m.mu.Unlock()

	j.emit(Event{Type: "queued"})
	go m.execute(j, jctx, runner)
	return j, nil
}

// execute drives one job through its lifecycle on its own goroutine.
func (m *Manager) execute(j *Job, ctx context.Context, run func(*Job, context.Context) (any, error)) {
	// Wait for an active slot; cancellation while queued is a clean
	// cancelled terminal state.
	select {
	case m.slots <- struct{}{}:
		defer func() { <-m.slots }()
	case <-ctx.Done():
		m.finish(j, nil, ctx.Err())
		return
	}
	j.mu.Lock()
	j.state = StateRunning
	j.mu.Unlock()
	j.emit(Event{Type: "started"})

	res, err := run(j, ctx)
	m.finish(j, res, err)
}

// finish moves the job to its terminal state, emits the terminal event,
// and applies retention.
func (m *Manager) finish(j *Job, res any, err error) {
	state := StateDone
	evType := "done"
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled):
		state, evType = StateCancelled, "cancelled"
	default:
		state, evType = StateFailed, "failed"
	}
	j.mu.Lock()
	j.state = state
	j.err = err
	j.result = res
	j.mu.Unlock()
	ev := Event{Type: evType}
	if err != nil {
		ev.Error = err.Error()
	}
	j.emit(ev)

	m.mu.Lock()
	m.live--
	m.finished = append(m.finished, j.id)
	for len(m.finished) > m.opts.Retain {
		delete(m.jobs, m.finished[0])
		m.finished = m.finished[1:]
	}
	m.mu.Unlock()
}

// runOne executes a single-run job. With epochInterval > 0 the run is
// observed: epoch probe rows stream as events while it executes, the
// cache read path is bypassed (a hit would leave the probes empty), and
// the result is Put into the cache afterwards so unobserved lookups of
// the same config — here or on a peer — hit.
func (m *Manager) runOne(j *Job, ctx context.Context, cfg ascoma.Config, epochInterval int64) (any, error) {
	if epochInterval > 0 {
		ep := obs.NewEpochs(epochInterval)
		ep.OnEpoch = func(epoch int) {
			ev := &EpochEvent{
				Epoch:  epoch,
				Cycle:  ep.Time(epoch),
				Nodes:  ep.Nodes(),
				Series: make(map[string][]int64, int(obs.NumProbes)),
			}
			for p := obs.Probe(0); p < obs.NumProbes; p++ {
				row := make([]int64, ep.Nodes())
				for n := range row {
					row[n] = ep.Value(p, epoch, n)
				}
				ev.Series[p.String()] = row
			}
			j.emit(Event{Type: "epoch", Epoch: ev})
		}
		cfg.Obs = &obs.Recording{Epochs: ep}
	}
	res, err := m.runner.Run(ctx, cfg)
	if err != nil {
		return nil, err
	}
	if epochInterval > 0 && m.runner.Cache != nil {
		if key, kerr := runcache.KeyOf(cfg); kerr == nil {
			m.runner.Cache.Put(key, res)
		}
	}
	j.mu.Lock()
	j.cellsDone = 1
	j.mu.Unlock()
	j.emit(Event{Type: "cell", Cell: &CellEvent{
		Index: 0, Arch: cfg.Arch.String(), Workload: cfg.Workload,
		Pressure: cfg.Pressure, Done: 1, Total: 1, ExecTimeCycles: res.ExecTime,
	}})
	return RunResult{Result: stats.Report(res.Machine), Samples: res.Samples}, nil
}

// runGrid runs the cells through Runner.RunAll in spec order; the first
// failure cancels the outstanding cells.
func (m *Manager) runGrid(j *Job, ctx context.Context, cells []ascoma.Config) (any, error) {
	results := make([]CellResult, len(cells))
	_, err := m.runner.RunAll(ctx, cells, func(i int, res *ascoma.Result) {
		cfg := cells[i]
		results[i] = CellResult{
			Arch: cfg.Arch.String(), Workload: cfg.Workload,
			Pressure: cfg.Pressure, Result: stats.Report(res.Machine),
		}
		j.mu.Lock()
		j.cellsDone++
		done := j.cellsDone
		j.mu.Unlock()
		j.emit(Event{Type: "cell", Cell: &CellEvent{
			Index: i, Arch: cfg.Arch.String(), Workload: cfg.Workload,
			Pressure: cfg.Pressure, Done: done, Total: len(cells),
			ExecTimeCycles: res.ExecTime,
		}})
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// runFigure renders one figure panel through the report package; the
// grid's per-cell completions stream as progress events.
func (m *Manager) runFigure(j *Job, ctx context.Context, fig FigureSpec) (any, error) {
	var buf strings.Builder
	opts, err := fig.ReportOptions(m.runner)
	if err != nil {
		return nil, err
	}
	opts.Progress = func(done, total int) {
		j.mu.Lock()
		j.cellsDone, j.cellsTot = done, total
		j.mu.Unlock()
		j.emit(Event{Type: "cell", Cell: &CellEvent{Index: -1, Done: done, Total: total}})
	}
	if err := report.Figure(ctx, &buf, fig.App, opts); err != nil {
		return nil, err
	}
	return buf.String(), nil
}
