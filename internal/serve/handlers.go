package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path"
	"strconv"
	"time"

	"daredevil/internal/scenario"
)

// maxBodyBytes bounds request bodies; scenario documents are small.
const maxBodyBytes = 1 << 20

// routes wires the ddserve API onto the mux.
func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSweep)
	s.mux.HandleFunc("POST /v1/whatif", s.handleWhatIf)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/cells/{idx}/{artifact}", s.handleArtifact)
	s.mux.HandleFunc("GET /metrics", s.handleMetricsProm)
	s.mux.HandleFunc("GET /metrics.json", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, "encoding failure", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(data)
	w.Write([]byte("\n"))
}

// writeErr writes a JSON error document.
func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// readBody reads a bounded request body.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "reading body: %v", err)
		return nil, false
	}
	return data, true
}

// admit pushes the job through admission control and writes the rejection
// responses (503 draining, 429 + Retry-After full queue). ok is true only
// when the job was accepted.
func (s *Server) admit(w http.ResponseWriter, jb *job) bool {
	switch status := s.submit(jb); status {
	case http.StatusAccepted:
		return true
	case http.StatusServiceUnavailable:
		writeErr(w, status, "server is draining; not accepting new jobs")
	default: // 429
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		writeErr(w, status, "admission queue full; retry later")
	}
	return false
}

// respondSubmitted answers an accepted submission: the status document
// immediately, or — with ?wait=1 — the final status once the job settles.
func (s *Server) respondSubmitted(w http.ResponseWriter, r *http.Request, jb *job) {
	if r.URL.Query().Get("wait") == "1" {
		select {
		case <-jb.done:
		case <-r.Context().Done():
			writeErr(w, http.StatusRequestTimeout, "client went away while waiting for %s", jb.id)
			return
		}
		st := jb.status()
		if st.State == string(jobFailed) {
			writeJSON(w, http.StatusInternalServerError, st)
			return
		}
		writeJSON(w, http.StatusOK, st)
		return
	}
	writeJSON(w, http.StatusAccepted, jb.status())
}

// handleSweep accepts a scenario (optionally with sweep axes), expands the
// grid, and queues one job covering every cell.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	data, ok := readBody(w, r)
	if !ok {
		return
	}
	sc, err := scenario.Parse(data)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	points, err := sc.Expand()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(points) > s.cfg.CellBudget {
		writeErr(w, http.StatusBadRequest,
			"sweep grid has %d cells, over the per-request budget of %d", len(points), s.cfg.CellBudget)
		return
	}
	jb := newJob(jobSweep)
	jb.base = sc
	jb.points = points
	if !s.admit(w, jb) {
		return
	}
	s.respondSubmitted(w, r, jb)
}

// handleWhatIf accepts a threshold query over a concrete base scenario.
func (s *Server) handleWhatIf(w http.ResponseWriter, r *http.Request) {
	data, ok := readBody(w, r)
	if !ok {
		return
	}
	var req whatIfRequest
	if err := json.Unmarshal(data, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "invalid whatif JSON: %v", err)
		return
	}
	if err := req.Scenario.Validate(); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(req.Scenario.Sweep) > 0 {
		writeErr(w, http.StatusBadRequest, "whatif base scenario must be concrete; remove \"sweep\"")
		return
	}
	if err := req.Query.validate(req.Scenario); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if bound := probeBound(req.Query.rangeSize()); bound > s.cfg.CellBudget {
		writeErr(w, http.StatusBadRequest,
			"whatif needs up to %d probes, over the per-request budget of %d", bound, s.cfg.CellBudget)
		return
	}
	jb := newJob(jobWhatIf)
	jb.base = req.Scenario
	jb.query = req.Query
	if !s.admit(w, jb) {
		return
	}
	s.respondSubmitted(w, r, jb)
}

// handleJobs lists every job in submission order.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.listJobs()
	docs := make([]jobStatusDoc, len(jobs))
	for i, jb := range jobs {
		docs[i] = jb.status()
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": docs})
}

// handleJob reports one job's status.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	jb, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, jb.status())
}

// handleJobResult serves the canonical result document. The document
// excludes job ids and cache metadata, so two submissions of the same spec
// return byte-identical bodies regardless of which was served from cache.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	jb, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	doc, done := jb.resultDoc()
	if !done {
		st := jb.status()
		if st.State == string(jobFailed) {
			writeErr(w, http.StatusInternalServerError, "job %s failed: %s", st.ID, st.Error)
			return
		}
		writeErr(w, http.StatusConflict, "job %s is %s; result not ready", st.ID, st.State)
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

// handleArtifact streams one cell's observability artifact.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	jb, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	idx, err := strconv.Atoi(r.PathValue("idx"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad cell index %q", r.PathValue("idx"))
		return
	}
	name := r.PathValue("artifact")
	a, ok := jb.artifact(idx, name)
	if !ok {
		writeErr(w, http.StatusNotFound,
			"job %s cell %d has no artifact %q (arm \"trace\", \"obsWindowUs\", or \"profile\")", jb.status().ID, idx, name)
		return
	}
	w.Header().Set("Content-Type", contentType(a.Name))
	w.Write(a.Data)
}

// contentType derives an artifact's Content-Type from its extension.
func contentType(name string) string {
	switch path.Ext(name) {
	case ".json":
		return "application/json"
	case ".csv":
		return "text/csv"
	case ".svg":
		return "image/svg+xml"
	default: // .txt, .folded
		return "text/plain; charset=utf-8"
	}
}

// metricsDoc is the GET /metrics.json payload (the legacy JSON health
// document; Prometheus scrapes GET /metrics).
type metricsDoc struct {
	UptimeSec         float64 `json:"uptimeSec"`
	Workers           int     `json:"workers"`
	BusyWorkers       int     `json:"busyWorkers"`
	WorkerUtilization float64 `json:"workerUtilization"`
	QueueDepth        int     `json:"queueDepth"`
	QueueCapacity     int     `json:"queueCapacity"`
	Draining          bool    `json:"draining"`
	JobsAccepted      uint64  `json:"jobsAccepted"`
	JobsCompleted     uint64  `json:"jobsCompleted"`
	JobsFailed        uint64  `json:"jobsFailed"`
	JobsRejected      uint64  `json:"jobsRejected"`
	CellsRun          uint64  `json:"cellsRun"`
	CacheHits         uint64  `json:"cacheHits"`
	CacheMisses       uint64  `json:"cacheMisses"`
	CacheHitRate      float64 `json:"cacheHitRate"`
	CacheEntries      int     `json:"cacheEntries"`
	GitRev            string  `json:"gitRev"`
}

// handleMetrics reports service health counters as JSON (/metrics.json).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	hits, misses, entries := s.cache.stats()
	busy := int(s.busy.Load())
	doc := metricsDoc{
		UptimeSec:         time.Since(s.started).Seconds(),
		Workers:           s.cfg.Workers,
		BusyWorkers:       busy,
		WorkerUtilization: float64(busy) / float64(s.cfg.Workers),
		QueueDepth:        len(s.queue),
		QueueCapacity:     s.cfg.QueueDepth,
		Draining:          s.Draining(),
		JobsAccepted:      s.jobsAccepted.Load(),
		JobsCompleted:     s.jobsCompleted.Load(),
		JobsFailed:        s.jobsFailed.Load(),
		JobsRejected:      s.jobsRejected.Load(),
		CellsRun:          s.cellsRun.Load(),
		CacheHits:         hits,
		CacheMisses:       misses,
		CacheEntries:      entries,
		GitRev:            s.cfg.GitRev,
	}
	if total := hits + misses; total > 0 {
		doc.CacheHitRate = float64(hits) / float64(total)
	}
	writeJSON(w, http.StatusOK, doc)
}

// handleHealthz is the liveness probe: 200 while serving, 503 once
// draining so load balancers stop routing new work here.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ok": false, "draining": true})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "draining": false})
}
