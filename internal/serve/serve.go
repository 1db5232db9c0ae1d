// Package serve is the ddserve capacity-planning service: a long-running
// HTTP/JSON daemon that turns the deterministic grid runner into a serving
// system. Clients submit scenario specs (the ddsim scenario JSON, extended
// with sweep axes), the server schedules them onto a bounded worker pool
// with admission control, caches completed cells keyed by (scenario hash,
// seed, git rev), streams per-cell observability artifacts back, and
// answers what-if threshold queries ("max tenants under this p99.9 SLO")
// by online binary search over the grid.
//
// This package is host code, not sim code: goroutines, wall clocks, and
// sync primitives are its job, and .ddvet.json exempts it from the
// simdeterminism analyzer. Every simulation it launches still runs inside
// the sim-ordered packages on a private engine, so results stay
// bit-identical across worker counts and repeated requests — a cache hit
// equals a fresh run, byte for byte.
package serve

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"daredevil/internal/harness"
	"daredevil/internal/prof"
	"daredevil/internal/scenario"
)

// Config sizes the service. Zero values select the documented defaults.
type Config struct {
	// Workers is the number of concurrent job runners (default 2). Each
	// running job fans its grid cells out over its own harness runner.
	Workers int
	// QueueDepth bounds the admission queue (default 16); a full queue
	// rejects submissions with 429 and a Retry-After hint.
	QueueDepth int
	// CellBudget caps the grid cells a single request may claim
	// (default 64); larger requests are rejected with 400.
	CellBudget int
	// CacheEntries bounds the LRU result cache (default 256 cells).
	CacheEntries int
	// CellParallelism is the per-job harness fan-out (default GOMAXPROCS).
	CellParallelism int
	// RetryAfter is the hint returned with 429 responses (default 1s).
	RetryAfter time.Duration
	// GitRev overrides the detected modeling-code revision in cache keys.
	GitRev string
	// Logger receives structured request and job logs (default
	// slog.Default). Every HTTP request logs one line carrying the
	// request id also returned in the X-Request-ID header.
	Logger *slog.Logger
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.CellBudget <= 0 {
		c.CellBudget = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.GitRev == "" {
		c.GitRev = detectGitRev()
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Server is the ddserve daemon: an HTTP handler plus the worker pool and
// cache behind it.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	cache *resultCache
	queue chan *job

	mu       sync.Mutex
	jobs     map[string]*job
	jobOrder []string // submission order
	finished []string // completion order; at most maxFinishedJobs
	nextID   int
	draining bool

	workersWG sync.WaitGroup
	busy      atomic.Int64
	started   time.Time

	jobsAccepted  atomic.Uint64
	jobsCompleted atomic.Uint64
	jobsFailed    atomic.Uint64
	jobsRejected  atomic.Uint64
	cellsRun      atomic.Uint64
	reqSeq        atomic.Uint64

	// fleet accumulates the layer-latency profile of every cell this
	// process simulated (cache hits don't re-merge — they re-serve work
	// already counted). /metrics exports it as Prometheus summaries.
	profMu sync.Mutex
	fleet  prof.Profile

	// runPoint executes one concrete (sweep-free) scenario cell. Tests
	// substitute it to control timing; production uses simulatePoint.
	runPoint func(sc scenario.Scenario) (cellOutput, error)
}

// New builds the server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   newResultCache(cfg.CacheEntries),
		queue:   make(chan *job, cfg.QueueDepth),
		jobs:    make(map[string]*job),
		started: time.Now(),
	}
	s.runPoint = s.simulatePoint
	s.mux = http.NewServeMux()
	s.routes()
	for i := 0; i < cfg.Workers; i++ {
		s.workersWG.Add(1)
		go s.work()
	}
	return s
}

// Handler returns the HTTP handler serving the ddserve API: the mux
// wrapped in the request-logging middleware (request ids, status,
// duration, bytes).
func (s *Server) Handler() http.Handler { return s.logRequests(s.mux) }

// GitRev reports the revision stamped into cache keys.
func (s *Server) GitRev() string { return s.cfg.GitRev }

// work is one job runner: it drains the admission queue until the queue is
// closed by BeginDrain.
func (s *Server) work() {
	defer s.workersWG.Done()
	for jb := range s.queue {
		s.busy.Add(1)
		s.execute(jb)
		s.busy.Add(-1)
	}
}

// maxFinishedJobs bounds how many done or failed jobs the server keeps
// for GET; older ones are forgotten (404), so the job table cannot grow
// without bound in a long-running daemon. Queued and running jobs are
// never evicted, and they are bounded by QueueDepth and Workers.
const maxFinishedJobs = 1024

// execute runs one job to completion, converting panics from modeling code
// into a failed job rather than a dead daemon.
func (s *Server) execute(jb *job) {
	defer s.retire(jb)
	defer close(jb.done)
	defer func() {
		if p := recover(); p != nil {
			jb.setFailed(fmt.Sprintf("cell panicked: %v", p))
			s.jobsFailed.Add(1)
		}
	}()
	jb.setState(jobRunning)
	var err error
	switch jb.kind {
	case jobSweep:
		err = s.runSweep(jb)
	case jobWhatIf:
		err = s.runWhatIf(jb)
	default:
		err = fmt.Errorf("unknown job kind %q", jb.kind)
	}
	if err != nil {
		jb.setFailed(err.Error())
		s.jobsFailed.Add(1)
		return
	}
	jb.setState(jobDone)
	s.jobsCompleted.Add(1)
}

// runSweep evaluates every grid cell, serving repeats from the cache and
// fanning misses out over a per-job harness runner. Results are assembled
// in grid order, so output is deterministic at any parallelism.
func (s *Server) runSweep(jb *job) error {
	points := jb.points
	outs := make([]cellOutput, len(points))
	keys := make([]cacheKey, len(points))
	var missIdx []int
	for i, p := range points {
		keys[i] = s.keyFor(p.Scenario)
		if e, ok := s.cache.get(keys[i]); ok {
			outs[i] = e
		} else {
			missIdx = append(missIdx, i)
		}
	}
	if len(missIdx) > 0 {
		errs := make([]error, len(missIdx))
		harness.NewRunner(s.cfg.CellParallelism).Run(len(missIdx), func(k int) {
			i := missIdx[k]
			outs[i], errs[k] = s.runPoint(points[i].Scenario)
		})
		for k, err := range errs {
			if err != nil {
				return fmt.Errorf("cell %d: %w", missIdx[k], err)
			}
		}
		for _, i := range missIdx {
			s.cache.put(keys[i], outs[i])
		}
	}
	jb.setSweepResult(outs, len(points)-len(missIdx))
	return nil
}

// runCachedPoint is the shared cell evaluator: cache lookup, fresh run on
// miss, insert. What-if probes go through it.
func (s *Server) runCachedPoint(sc scenario.Scenario) (out cellOutput, hit bool, err error) {
	key := s.keyFor(sc)
	if e, ok := s.cache.get(key); ok {
		return e, true, nil
	}
	out, err = s.runPoint(sc)
	if err != nil {
		return out, false, err
	}
	s.cache.put(key, out)
	return out, false, nil
}

// keyFor derives the cache key of one concrete scenario.
func (s *Server) keyFor(sc scenario.Scenario) cacheKey {
	return cacheKey{
		SpecHash:  sc.Hash(),
		Seed:      sc.Seed,
		GitRev:    s.cfg.GitRev,
		Artifacts: wantsArtifacts(sc),
	}
}

// wantsArtifacts reports whether the scenario arms observability surfaces
// whose exports ddserve stores per cell.
func wantsArtifacts(sc scenario.Scenario) bool {
	return sc.Trace || sc.ObsWindowUs > 0 || sc.Profile
}

// simulatePoint builds and runs one cell and renders its artifacts. Every
// fresh run is profiled — profiling is observation-only, so results are
// unchanged and cache keys don't care — and its layer profile merges into
// the fleet telemetry behind /metrics. The per-cell profile is kept only
// when the scenario asked for it.
func (s *Server) simulatePoint(sc scenario.Scenario) (cellOutput, error) {
	var out cellOutput
	spec, err := sc.CellSpec()
	if err != nil {
		return out, err
	}
	cell := harness.BuildCell(spec)
	// The fleet profile is armed result-only, so Artifacts below renders
	// exactly the surfaces the scenario armed: no profile.* unless it set
	// "profile", and nothing at all for a scenario that armed none.
	// Rendering is the costly part of an artifact, and most served cells
	// (every probe of a plain what-if search) ask for none.
	cell.EnableResultProfile()
	out.result = cell.Run(spec.Warmup, spec.Measure)
	s.cellsRun.Add(1)
	if p := out.result.Profile; p != nil {
		s.profMu.Lock()
		s.fleet = prof.Merge(s.fleet, *p)
		s.profMu.Unlock()
	}
	if !sc.Profile {
		out.result.Profile = nil
	}
	out.artifacts, err = cell.Artifacts()
	return out, err
}

// fleetProfile snapshots the merged layer profile of every cell simulated
// by this process.
func (s *Server) fleetProfile() prof.Profile {
	s.profMu.Lock()
	defer s.profMu.Unlock()
	return prof.Merge(s.fleet, prof.Profile{})
}

// BeginDrain stops admission: subsequent submissions receive 503 and the
// queue is closed so workers exit after finishing every accepted job.
// Idempotent.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return
	}
	s.draining = true
	close(s.queue)
}

// Draining reports whether the server has stopped accepting work.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain stops admission and waits until every accepted job (queued and
// running) has completed, or ctx expires.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.workersWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close drains with no deadline (tests and defer paths).
func (s *Server) Close() { _ = s.Drain(context.Background()) }

// submit runs admission control for an already-validated job: reject when
// draining (503) or when the bounded queue is full (429), otherwise
// register and enqueue. The returned status is an HTTP code.
func (s *Server) submit(jb *job) (status int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.jobsRejected.Add(1)
		return http.StatusServiceUnavailable
	}
	select {
	case s.queue <- jb:
	default:
		s.jobsRejected.Add(1)
		return http.StatusTooManyRequests
	}
	s.nextID++
	jb.id = fmt.Sprintf("j%d", s.nextID)
	s.jobs[jb.id] = jb
	s.jobOrder = append(s.jobOrder, jb.id)
	s.jobsAccepted.Add(1)
	return http.StatusAccepted
}

// retire records a job as finished and evicts the oldest finished jobs
// beyond maxFinishedJobs.
func (s *Server) retire(jb *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.finished = append(s.finished, jb.id)
	for len(s.finished) > maxFinishedJobs {
		old := s.finished[0]
		s.finished = s.finished[1:]
		delete(s.jobs, old)
		if i := slices.Index(s.jobOrder, old); i >= 0 {
			s.jobOrder = slices.Delete(s.jobOrder, i, i+1)
		}
	}
}

// jobByID looks a job up.
func (s *Server) jobByID(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	jb, ok := s.jobs[id]
	return jb, ok
}

// listJobs snapshots all jobs in submission order.
func (s *Server) listJobs() []*job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*job, 0, len(s.jobOrder))
	for _, id := range s.jobOrder {
		out = append(out, s.jobs[id])
	}
	return out
}
