package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"daredevil/internal/harness"
	"daredevil/internal/scenario"
	"daredevil/internal/serve"
)

const (
	// catalogSize is about twice serve.Config's default 256-entry result
	// cache, so popularity decides which scenarios stay cached.
	catalogSize = 512
	// zipfAlpha shapes request popularity: P(rank k) ∝ k^-zipfAlpha.
	// Breslau et al. ("Web Caching and Zipf-like Distributions: Evidence
	// and Implications", INFOCOM 1999) fit exponents between 0.64 and 0.83
	// to six web-proxy request traces; 0.75 is near the middle of that
	// range. No ddserve traffic has been recorded to fit instead. The hit
	// ratio against the cache follows from it and is measured, not set.
	zipfAlpha = 0.75
	// clients is the closed loop's width: each client waits for its reply
	// before sending the next request, as ddserve callers do.
	clients = 2
	// passRequests is the pass size: enough requests that the per-pass
	// 99th percentile has ten samples beyond it.
	passRequests = 1000
	// warmupRequests fill the result cache before anything is timed.
	warmupRequests = 1500
	// setupProbes is how many extra daemons are started and stopped after
	// each pass. setup_s is the median of their start-up times, so its
	// samples spread over the whole run like the other timings.
	setupProbes = 5
	// digestRanks is how many of the most popular scenarios the digest
	// covers.
	digestRanks = 32
	// catalogWarmupMs and catalogMeasureMs are the catalog's short virtual
	// windows.
	catalogWarmupMs, catalogMeasureMs = 20, 80
)

// serveCatalog generates the catalog of distinct single-cell scenarios
// (each varies seed, stack and tenant counts) and the request sequence:
// catalog indices drawn with Zipf popularity, the popularity ranks
// assigned to catalog entries at random.
func serveCatalog(seed uint64, requests int) (docs [][]byte, byRank, seq []int) {
	rng := rand.New(rand.NewPCG(seed, 0x7a6970))
	base := rng.Uint64N(1 << 30)
	tCounts := []int{2, 4, 8}
	for i := 0; i < catalogSize; i++ {
		docs = append(docs, mustMarshal(scenario.Scenario{
			Machine: "svm", Cores: 4,
			Stack:    string(harness.AllKinds[rng.IntN(len(harness.AllKinds))]),
			WarmupMs: catalogWarmupMs, MeasureMs: catalogMeasureMs,
			Seed: base + uint64(i),
			Jobs: []scenario.Job{
				{Name: "L", Class: "L", Count: 1 + rng.IntN(4)},
				{Name: "T", Class: "T", Count: tCounts[rng.IntN(len(tCounts))]},
			},
		}))
	}
	byRank = rng.Perm(catalogSize)
	cdf := zipfCDF(catalogSize, zipfAlpha)
	seq = make([]int, requests)
	for i := range seq {
		rank, _ := slices.BinarySearch(cdf, rng.Float64())
		seq[i] = byRank[min(rank, catalogSize-1)]
	}
	return docs, byRank, seq
}

// zipfCDF is the cumulative popularity of ranks 0..n-1 when rank k has
// weight (k+1)^-alpha.
func zipfCDF(n int, alpha float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(k+1), -alpha)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}

// daemon is one in-process ddserve behind a loopback listener.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	client *http.Client
	base   string
}

// startDaemon builds the server with the default configuration (request
// logging on, into a discard sink) and returns once /healthz answers.
func startDaemon() (*daemon, error) {
	srv := serve.New(serve.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}},
		base:   "http://" + ln.Addr().String(),
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	status, _, err := d.do(http.MethodGet, "/healthz", nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("healthz answered %d", status)
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop shuts the listener down, drains the worker pool, and waits for the
// serving goroutine to return.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = d.hs.Shutdown(ctx) // a timeout leaves nothing to clean up beyond Close
	_ = d.hs.Close()
	<-d.served
	d.srv.Close()
	d.client.CloseIdleConnections()
}

// do sends one request and reads the whole reply.
func (d *daemon) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// serveRun is the serve-zipf workload's state across its phases.
type serveRun struct {
	d      *daemon
	docs   [][]byte
	byRank []int
	seq    []int
	next   atomic.Int64 // position in seq of the next request

	mu    sync.Mutex
	first map[int][]byte // catalog index -> the first result document seen
}

// reqRec is one completed request.
type reqRec struct {
	latMs float64
	hit   bool
	err   error
}

func runServeZipf(b *bench) error {
	d, err := startDaemon()
	if err != nil {
		return fmt.Errorf("starting the daemon: %w", err)
	}
	defer d.stop()
	docs, byRank, seq := serveCatalog(b.cfg.seed, 1<<18)
	s := &serveRun{d: d, docs: docs, byRank: byRank, seq: seq, first: map[int][]byte{}}

	// Fill the cache before timing; warm-up requests still count as
	// attempted and are checked.
	for _, r := range s.loop(warmupRequests, nil) {
		b.res.op(r.err)
	}
	if err := b.measure(func(seconds float64, tr *tracer) (phase, error) {
		return s.timed(b.res, seconds, tr)
	}); err != nil {
		return err
	}
	s.final(b.res)
	return nil
}

// loop runs the closed loop until the next count requests of the
// sequence have completed.
func (s *serveRun) loop(count int, tr *tracer) []reqRec {
	stopAt := s.next.Load() + int64(count)
	recs := make([][]reqRec, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := s.next.Add(1) - 1
				if i >= stopAt {
					return
				}
				recs[c] = append(recs[c], s.request(s.seq[int(i)%len(s.seq)], int(i), tr))
			}
		}(c)
	}
	wg.Wait()
	s.next.Store(stopAt)
	return slices.Concat(recs...)
}

// request is one caller's round trip: submit the scenario and wait for the
// job, then fetch its result document. The document must equal the first
// one seen for the same scenario, whether it came from the cache or not.
func (s *serveRun) request(idx, key int, tr *tracer) (r reqRec) {
	rs := tr.begin("request", key, 0)
	defer tr.end(rs)
	t0 := time.Now()
	ps := tr.begin("post", key, rs)
	status, body, err := s.d.do(http.MethodPost, "/v1/sweeps?wait=1", s.docs[idx])
	tr.end(ps)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("POST /v1/sweeps answered %d: %s", status, bytes.TrimSpace(body))
	}
	if err != nil {
		r.err = err
		return r
	}
	var st struct {
		ID          string `json:"id"`
		Cells       int    `json:"cells"`
		CachedCells int    `json:"cachedCells"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		r.err = fmt.Errorf("job status: %w", err)
		return r
	}
	gs := tr.begin("get", key, rs)
	status, doc, err := s.d.do(http.MethodGet, "/v1/jobs/"+st.ID+"/result", nil)
	tr.end(gs)
	r.latMs = float64(time.Since(t0)) / 1e6
	r.hit = st.Cells == 1 && st.CachedCells == 1
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("GET result of %s answered %d", st.ID, status)
	}
	if err == nil {
		err = s.checkDoc(idx, doc)
	}
	r.err = err
	return r
}

// checkDoc verifies one result document: the cell did work, and the bytes
// equal the first document served for that scenario.
func (s *serveRun) checkDoc(idx int, doc []byte) error {
	var res struct {
		Cells []struct {
			LLatency struct {
				Count uint64 `json:"count"`
			} `json:"lLatency"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(doc, &res); err != nil {
		return fmt.Errorf("scenario %d: result document: %w", idx, err)
	}
	if len(res.Cells) != 1 || res.Cells[0].LLatency.Count == 0 {
		return fmt.Errorf("scenario %d: result has no completed L operations", idx)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	first, ok := s.first[idx]
	if !ok {
		s.first[idx] = doc
		return nil
	}
	if !bytes.Equal(first, doc) {
		return fmt.Errorf("scenario %d: result differs from the first one served", idx)
	}
	return nil
}

// metricsJSON scrapes the daemon's counters.
type daemonCounters struct {
	CellsRun    uint64 `json:"cellsRun"`
	CacheHits   uint64 `json:"cacheHits"`
	CacheMisses uint64 `json:"cacheMisses"`
}

func (s *serveRun) counters() (daemonCounters, error) {
	var c daemonCounters
	status, body, err := s.d.do(http.MethodGet, "/metrics.json", nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("GET /metrics.json answered %d", status)
	}
	if err == nil {
		err = json.Unmarshal(body, &c)
	}
	return c, err
}

// timed runs passes of the closed loop until the budget is spent and
// reduces them to the phase's metrics.
func (s *serveRun) timed(res *result, seconds float64, tr *tracer) (phase, error) {
	smp := newSampler()
	c0, err := s.counters()
	if err != nil {
		return nil, err
	}
	if tr != nil {
		// Parse the catalog under spans: the daemon parses every request
		// body the same way.
		for i, doc := range s.docs {
			ps := tr.begin("parse", i, 0)
			_, err := scenario.Parse(doc)
			tr.end(ps)
			if err != nil {
				return nil, err
			}
		}
	}
	var ps passStats
	var fresh, hits, setups []float64
	var allocBytes uint64
	requests := 0
	start := smp.read()
	t0 := time.Now()
	for pass := 1; pass <= minPasses || time.Since(t0).Seconds() < seconds; pass++ {
		before := smp.read()
		p0 := time.Now()
		recs := s.loop(passRequests, tr)
		wall := time.Since(p0)
		allocBytes += smp.read().allocBytes - before.allocBytes
		for i := 0; i < setupProbes; i++ {
			t := time.Now()
			probe, err := startDaemon()
			if err != nil {
				return nil, fmt.Errorf("starting a daemon: %w", err)
			}
			setups = append(setups, time.Since(t).Seconds())
			probe.stop()
		}
		lat := make([]float64, 0, len(recs))
		var freshN int
		var freshS float64
		for _, r := range recs {
			res.op(r.err)
			if r.err != nil {
				continue
			}
			lat = append(lat, r.latMs)
			if r.hit {
				hits = append(hits, r.latMs)
			} else {
				fresh = append(fresh, r.latMs)
				freshN++
				freshS += r.latMs / 1e3
			}
		}
		if len(lat) == 0 {
			return nil, errors.New("no request completed")
		}
		requests += len(lat)
		rate := 0.0
		if freshS > 0 {
			rate = float64(freshN) * (catalogWarmupMs + catalogMeasureMs) / freshS
		}
		ps.add(wall.Seconds(), 0, rate, lat, 0)
	}
	end := smp.read()
	c1, err := s.counters()
	if err != nil {
		return nil, err
	}
	p := ps.phase()
	n := float64(requests)
	p["setup_s"] = median(setups)
	p["alloc_mb"] = float64(allocBytes) / 1e6 * passRequests / n
	p["runtime.gc_cpu_frac"] = gcFrac(start, end)
	p["serve.cells_run"] = float64(c1.CellsRun-c0.CellsRun) * passRequests / n
	p["serve.fresh_samples"] = float64(len(fresh))
	p["serve.hit_samples"] = float64(len(hits))
	p["serve.fresh_p50_ms"] = quantile(fresh, 0.5)
	p["serve.fresh_p99_ms"] = quantile(fresh, 0.99)
	p["serve.hit_p50_ms"] = quantile(hits, 0.5)
	p["serve.hit_p99_ms"] = quantile(hits, 0.99)
	if lookups := (c1.CacheHits - c0.CacheHits) + (c1.CacheMisses - c0.CacheMisses); lookups > 0 {
		p["serve.cache_hit_ratio"] = float64(c1.CacheHits-c0.CacheHits) / float64(lookups)
	}
	res.Samples["passes"] += len(ps.wall)
	res.Samples["requests"] += requests
	res.Samples["fresh"] += len(fresh)
	res.Samples["hits"] += len(hits)
	res.Samples["setup"] += len(setups)
	return p, nil
}

// final fetches the most popular scenarios once more for the digest, and
// checks the most popular one against a direct run of the same scenario
// through the harness.
func (s *serveRun) final(res *result) {
	var docs [][]byte
	for rank := 0; rank < digestRanks; rank++ {
		idx := s.byRank[rank]
		r := s.request(idx, -1-rank, nil)
		res.op(r.err)
		s.mu.Lock()
		docs = append(docs, s.first[idx])
		s.mu.Unlock()
	}
	res.Digest = digest(docs)
	res.op(s.crossCheck(s.byRank[0]))
}

// crossCheck runs a catalog scenario directly through Parse, CellSpec,
// BuildCell and Run, and requires the daemon's document to report the same
// modelled statistics.
func (s *serveRun) crossCheck(idx int) error {
	sc, err := scenario.Parse(s.docs[idx])
	if err != nil {
		return err
	}
	points, err := sc.Expand()
	if err != nil {
		return err
	}
	c := runCell(points[0], nil, 0, 0)
	if c.err != nil {
		return c.err
	}
	var doc struct {
		Cells []struct {
			LLatency struct {
				Count uint64 `json:"count"`
			} `json:"lLatency"`
			LKIOPS          float64 `json:"lKIOPS"`
			TThroughputMBps float64 `json:"tThroughputMBps"`
		} `json:"cells"`
	}
	s.mu.Lock()
	first := s.first[idx]
	s.mu.Unlock()
	if err := json.Unmarshal(first, &doc); err != nil || len(doc.Cells) != 1 {
		return fmt.Errorf("scenario %d: unreadable result document", idx)
	}
	got := doc.Cells[0]
	if got.LLatency.Count != c.result.LTenantLatency.Count || got.LKIOPS != c.result.LTenantKIOPS ||
		got.TThroughputMBps != c.result.TThroughputMBps {
		return fmt.Errorf("scenario %d: daemon result differs from a direct harness run", idx)
	}
	return nil
}
