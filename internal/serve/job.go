package serve

import (
	"sync"

	"daredevil/internal/harness"
	"daredevil/internal/prof"
	"daredevil/internal/scenario"
	"daredevil/internal/stats"
)

// jobKind selects the job's evaluation strategy.
type jobKind string

const (
	jobSweep  jobKind = "sweep"
	jobWhatIf jobKind = "whatif"
)

// jobState is the job's lifecycle phase.
type jobState string

const (
	jobQueued  jobState = "queued"
	jobRunning jobState = "running"
	jobDone    jobState = "done"
	jobFailed  jobState = "failed"
)

// cellOutput is one evaluated cell: the typed result plus the rendered
// artifacts, in the cell's canonical order. The cache stores the same
// value.
type cellOutput struct {
	result    harness.CellResult
	artifacts []harness.Artifact
}

// job is one accepted request moving through the queue and worker pool.
type job struct {
	id     string
	kind   jobKind
	base   scenario.Scenario
	points []scenario.Point // sweep: expanded grid, in grid order
	query  whatIfQuery      // whatif only

	// done closes when the job reaches a terminal state.
	done chan struct{}

	mu       sync.Mutex
	state    jobState
	errMsg   string
	outs     []cellOutput // sweep results, grid order
	cached   int          // cells served from the cache
	probeLog []probeRecord
	answer   int
	feasible bool
}

func newJob(kind jobKind) *job {
	return &job{kind: kind, done: make(chan struct{}), state: jobQueued, answer: -1}
}

func (j *job) setState(st jobState) {
	j.mu.Lock()
	j.state = st
	j.mu.Unlock()
}

func (j *job) setFailed(msg string) {
	j.mu.Lock()
	j.state = jobFailed
	j.errMsg = msg
	j.mu.Unlock()
}

func (j *job) setSweepResult(outs []cellOutput, cached int) {
	j.mu.Lock()
	j.outs = outs
	j.cached = cached
	j.mu.Unlock()
}

func (j *job) setWhatIfResult(log []probeRecord, answer int, feasible bool, cached int) {
	j.mu.Lock()
	j.probeLog = log
	j.answer = answer
	j.feasible = feasible
	j.cached = cached
	j.mu.Unlock()
}

// artifact returns one named artifact of one cell, if present.
func (j *job) artifact(idx int, name string) (harness.Artifact, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != jobDone || idx < 0 || idx >= len(j.outs) {
		return harness.Artifact{}, false
	}
	for _, a := range j.outs[idx].artifacts {
		if a.Name == name {
			return a, true
		}
	}
	return harness.Artifact{}, false
}

// jobStatusDoc is the varying per-job metadata (id, state, cache counts).
// It is deliberately separate from the result document so that two
// identical submissions return byte-identical results.
type jobStatusDoc struct {
	ID          string `json:"id"`
	Kind        string `json:"kind"`
	State       string `json:"state"`
	Cells       int    `json:"cells"`
	CachedCells int    `json:"cachedCells"`
	Error       string `json:"error,omitempty"`
}

func (j *job) status() jobStatusDoc {
	j.mu.Lock()
	defer j.mu.Unlock()
	cells := len(j.points)
	if j.kind == jobWhatIf {
		cells = len(j.probeLog)
	}
	return jobStatusDoc{
		ID:          j.id,
		Kind:        string(j.kind),
		State:       string(j.state),
		Cells:       cells,
		CachedCells: j.cached,
		Error:       j.errMsg,
	}
}

// latencyDoc is a latency distribution in microseconds.
type latencyDoc struct {
	Count  uint64  `json:"count"`
	MeanUs float64 `json:"meanUs"`
	P50Us  float64 `json:"p50Us"`
	P90Us  float64 `json:"p90Us"`
	P99Us  float64 `json:"p99Us"`
	P999Us float64 `json:"p999Us"`
	MaxUs  float64 `json:"maxUs"`
}

func latencyDocOf(s stats.Snapshot) latencyDoc {
	return latencyDoc{
		Count:  s.Count,
		MeanUs: s.Mean.Microseconds(),
		P50Us:  s.P50.Microseconds(),
		P90Us:  s.P90.Microseconds(),
		P99Us:  s.P99.Microseconds(),
		P999Us: s.P999.Microseconds(),
		MaxUs:  s.Max.Microseconds(),
	}
}

// ftlDoc summarizes device-internal activity for FTL-backed cells.
type ftlDoc struct {
	WriteAmplification float64    `json:"writeAmplification"`
	GCRuns             uint64     `json:"gcRuns"`
	GCPagesMoved       uint64     `json:"gcPagesMoved"`
	Erases             uint64     `json:"erases"`
	ForegroundGCs      uint64     `json:"foregroundGCs"`
	TrimmedPages       uint64     `json:"trimmedPages"`
	GCPauses           latencyDoc `json:"gcPauses"`
}

// layerStatDoc is one taxonomy layer of a profiled cell's breakdown.
type layerStatDoc struct {
	Layer    string  `json:"layer"`
	SharePct float64 `json:"sharePct"`
	MeanUs   float64 `json:"meanUs"`
	P50Us    float64 `json:"p50Us"`
	P99Us    float64 `json:"p99Us"`
}

// profileGroupDoc is one (class) group of a profiled cell's layer
// breakdown; the stack is the cell's own.
type profileGroupDoc struct {
	Class    string         `json:"class"`
	Requests uint64         `json:"requests"`
	Layers   []layerStatDoc `json:"layers"`
}

// cellDoc is one grid cell of a sweep result.
type cellDoc struct {
	Labels          []string          `json:"labels,omitempty"`
	SpecHash        string            `json:"specHash"`
	LLatency        latencyDoc        `json:"lLatency"`
	TLatency        latencyDoc        `json:"tLatency"`
	LKIOPS          float64           `json:"lKIOPS"`
	TThroughputMBps float64           `json:"tThroughputMBps"`
	CPUUtilization  float64           `json:"cpuUtilization"`
	FTL             *ftlDoc           `json:"ftl,omitempty"`
	Profile         []profileGroupDoc `json:"profile,omitempty"`
	Artifacts       []string          `json:"artifacts,omitempty"`
}

// profileGroupDocsOf flattens a cell profile into the result document's
// layer breakdown.
func profileGroupDocsOf(p *prof.Profile) []profileGroupDoc {
	if p == nil {
		return nil
	}
	docs := make([]profileGroupDoc, 0, len(p.Groups))
	for _, g := range p.Groups {
		d := profileGroupDoc{Class: g.Class, Requests: g.Requests}
		for _, l := range g.Layers {
			ld := layerStatDoc{
				Layer:  l.Layer,
				MeanUs: l.Mean().Microseconds(),
				P50Us:  l.Quantile(0.5).Microseconds(),
				P99Us:  l.Quantile(0.99).Microseconds(),
			}
			if g.Total.Sum > 0 {
				ld.SharePct = 100 * float64(l.Sum) / float64(g.Total.Sum)
			}
			d.Layers = append(d.Layers, ld)
		}
		docs = append(docs, d)
	}
	return docs
}

func cellDocOf(p scenario.Point, o cellOutput) cellDoc {
	d := cellDoc{
		Labels:          p.Labels,
		SpecHash:        p.Scenario.Hash(),
		LLatency:        latencyDocOf(o.result.LTenantLatency),
		TLatency:        latencyDocOf(o.result.TTenantLatency),
		LKIOPS:          o.result.LTenantKIOPS,
		TThroughputMBps: o.result.TThroughputMBps,
		CPUUtilization:  o.result.CPUUtilization,
	}
	if f := o.result.FTL; f != nil {
		d.FTL = &ftlDoc{
			WriteAmplification: f.WriteAmplification,
			GCRuns:             f.GCRuns,
			GCPagesMoved:       f.GCPagesMoved,
			Erases:             f.Erases,
			ForegroundGCs:      f.ForegroundGCs,
			TrimmedPages:       f.TrimmedPages,
			GCPauses:           latencyDocOf(f.GCPauses),
		}
	}
	d.Profile = profileGroupDocsOf(o.result.Profile)
	for _, a := range o.artifacts {
		d.Artifacts = append(d.Artifacts, a.Name)
	}
	return d
}

// sweepResultDoc is the canonical result of a sweep job. It carries no job
// id, timestamps, or cache metadata, so identical submissions serialize to
// identical bytes — the determinism tests compare these documents directly.
type sweepResultDoc struct {
	Grid  int       `json:"grid"`
	Cells []cellDoc `json:"cells"`
}

// probeRecord is one binary-search probe of a what-if query.
type probeRecord struct {
	Value    int     `json:"value"`
	MetricUs float64 `json:"metricUs"`
	OK       bool    `json:"ok"`
}

// whatIfResultDoc is the canonical result of a what-if query.
type whatIfResultDoc struct {
	Param    string        `json:"param"`
	Metric   string        `json:"metric"`
	SLOUs    float64       `json:"sloUs"`
	Min      int           `json:"min"`
	Max      int           `json:"max"`
	Feasible bool          `json:"feasible"`
	Answer   int           `json:"answer"` // largest passing value; -1 when infeasible
	Probes   int           `json:"probes"`
	ProbeLog []probeRecord `json:"probeLog"`
}

// resultDoc builds the job's canonical result document; ok is false until
// the job is done.
func (j *job) resultDoc() (doc any, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != jobDone {
		return nil, false
	}
	switch j.kind {
	case jobWhatIf:
		return whatIfResultDoc{
			Param:    j.query.Param,
			Metric:   j.query.Metric,
			SLOUs:    j.query.SLOUs,
			Min:      j.query.Min,
			Max:      j.query.Max,
			Feasible: j.feasible,
			Answer:   j.answer,
			Probes:   len(j.probeLog),
			ProbeLog: j.probeLog,
		}, true
	default:
		cells := make([]cellDoc, len(j.points))
		for i := range j.points {
			cells[i] = cellDocOf(j.points[i], j.outs[i])
		}
		return sweepResultDoc{Grid: len(cells), Cells: cells}, true
	}
}
