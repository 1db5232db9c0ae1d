package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"daredevil/internal/scenario"
	"daredevil/internal/sim"
)

// smallScenario is a fast single cell: one L tenant, two T tenants, tiny
// windows.
const smallScenario = `{"cores":2,"warmupMs":5,"measureMs":20,
  "jobs":[{"name":"db","class":"L","count":1},{"name":"bg","class":"T","count":2}]}`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.GitRev = "test"
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url, body string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, data, resp.Header
}

func get(t *testing.T, url string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, data, resp.Header
}

func jobID(t *testing.T, body []byte) string {
	t.Helper()
	var st jobStatusDoc
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("decoding status %s: %v", body, err)
	}
	return st.ID
}

// waitState polls until the job reaches the wanted state.
func waitState(t *testing.T, base, id, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		_, body, _ := get(t, base+"/v1/jobs/"+id)
		var st jobStatusDoc
		if err := json.Unmarshal(body, &st); err == nil && st.State == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %q", id, want)
}

// blockingStub replaces runPoint with one that parks until release closes.
func blockingStub(release <-chan struct{}) func(scenario.Scenario) (cellOutput, error) {
	return func(scenario.Scenario) (cellOutput, error) {
		<-release
		return cellOutput{}, nil
	}
}

// TestQueueFull429 fills the single-slot queue behind a busy worker and
// checks the next submission is rejected with 429 + Retry-After without
// disturbing the accepted jobs.
func TestQueueFull429(t *testing.T) {
	release := make(chan struct{})
	released := false
	releaseOnce := func() {
		if !released {
			released = true
			close(release)
		}
	}
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, RetryAfter: 3 * time.Second})
	s.runPoint = blockingStub(release)
	defer func() { releaseOnce(); s.Close() }()

	code, body, _ := post(t, ts.URL+"/v1/sweeps", smallScenario)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: got %d, want 202 (%s)", code, body)
	}
	first := jobID(t, body)
	waitState(t, ts.URL, first, "running") // worker is parked in the stub

	code, body, _ = post(t, ts.URL+"/v1/sweeps", smallScenario)
	if code != http.StatusAccepted {
		t.Fatalf("second submit: got %d, want 202 (%s)", code, body)
	}
	second := jobID(t, body)

	code, body, hdr := post(t, ts.URL+"/v1/sweeps", smallScenario)
	if code != http.StatusTooManyRequests {
		t.Fatalf("overload submit: got %d, want 429 (%s)", code, body)
	}
	if hdr.Get("Retry-After") != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", hdr.Get("Retry-After"))
	}

	// The rejection must not have harmed the accepted jobs.
	releaseOnce()
	waitState(t, ts.URL, first, "done")
	waitState(t, ts.URL, second, "done")
}

// TestCellBudget400 rejects grids over the per-request budget up front.
func TestCellBudget400(t *testing.T) {
	s, ts := newTestServer(t, Config{CellBudget: 2})
	defer s.Close()
	sweep := `{"cores":2,"measureMs":10,
	  "jobs":[{"name":"bg","class":"T","count":1}],
	  "sweep":[{"param":"count:bg","values":[1,2,3,4]}]}`
	code, body, _ := post(t, ts.URL+"/v1/sweeps", sweep)
	if code != http.StatusBadRequest {
		t.Fatalf("got %d, want 400 (%s)", code, body)
	}
	if !bytes.Contains(body, []byte("budget")) {
		t.Fatalf("error should mention the budget: %s", body)
	}
}

// TestGracefulDrain checks that draining rejects new work with 503 while
// every accepted job — running and queued — still completes.
func TestGracefulDrain(t *testing.T) {
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	s.runPoint = blockingStub(release)

	_, body, _ := post(t, ts.URL+"/v1/sweeps", smallScenario)
	first := jobID(t, body)
	waitState(t, ts.URL, first, "running")
	_, body, _ = post(t, ts.URL+"/v1/sweeps", smallScenario)
	second := jobID(t, body)

	s.BeginDrain()
	if code, body, _ := post(t, ts.URL+"/v1/sweeps", smallScenario); code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: got %d, want 503 (%s)", code, body)
	}
	if code, _, _ := get(t, ts.URL+"/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: got %d, want 503", code)
	}

	close(release)
	s.Close() // Drain with no deadline
	waitState(t, ts.URL, first, "done")
	waitState(t, ts.URL, second, "done")
}

// TestCacheHitByteIdentical submits the same spec twice and requires (a)
// the second run to be served from the cache and (b) both result documents
// to be byte-identical — determinism makes the cache invisible.
func TestCacheHitByteIdentical(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	defer s.Close()

	code, body, _ := post(t, ts.URL+"/v1/sweeps?wait=1", smallScenario)
	if code != http.StatusOK {
		t.Fatalf("first submit: got %d (%s)", code, body)
	}
	first := jobID(t, body)
	code, body, _ = post(t, ts.URL+"/v1/sweeps?wait=1", smallScenario)
	if code != http.StatusOK {
		t.Fatalf("second submit: got %d (%s)", code, body)
	}
	var st jobStatusDoc
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.CachedCells != 1 {
		t.Fatalf("second job cachedCells = %d, want 1 (status %s)", st.CachedCells, body)
	}

	_, res1, _ := get(t, ts.URL+"/v1/jobs/"+first+"/result")
	_, res2, _ := get(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
	if !bytes.Equal(res1, res2) {
		t.Fatalf("cached result differs from fresh run:\n%s\nvs\n%s", res1, res2)
	}

	var m metricsDoc
	_, mb, _ := get(t, ts.URL+"/metrics.json")
	if err := json.Unmarshal(mb, &m); err != nil {
		t.Fatal(err)
	}
	if m.CellsRun != 1 {
		t.Fatalf("cellsRun = %d, want 1 (only the first submission simulates)", m.CellsRun)
	}
	if m.CacheHits == 0 {
		t.Fatalf("cacheHits = 0, want > 0 (%s)", mb)
	}
}

// TestSweepGridResult expands a one-axis sweep and checks grid order and
// labels in the result document.
func TestSweepGridResult(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, CellParallelism: 2})
	defer s.Close()
	sweep := `{"cores":2,"warmupMs":5,"measureMs":20,
	  "jobs":[{"name":"db","class":"L","count":1},{"name":"bg","class":"T","count":1}],
	  "sweep":[{"param":"count:bg","values":[1,2]}]}`
	code, body, _ := post(t, ts.URL+"/v1/sweeps?wait=1", sweep)
	if code != http.StatusOK {
		t.Fatalf("submit: got %d (%s)", code, body)
	}
	_, res, _ := get(t, ts.URL+"/v1/jobs/"+jobID(t, body)+"/result")
	var doc sweepResultDoc
	if err := json.Unmarshal(res, &doc); err != nil {
		t.Fatalf("decoding result %s: %v", res, err)
	}
	if doc.Grid != 2 || len(doc.Cells) != 2 {
		t.Fatalf("grid = %d with %d cells, want 2/2", doc.Grid, len(doc.Cells))
	}
	if got := doc.Cells[0].Labels[0]; got != "count:bg=1" {
		t.Fatalf("cell 0 label = %q, want count:bg=1", got)
	}
	if got := doc.Cells[1].Labels[0]; got != "count:bg=2" {
		t.Fatalf("cell 1 label = %q, want count:bg=2", got)
	}
	// More T tenants must not report fewer T completions.
	if doc.Cells[1].TLatency.Count < doc.Cells[0].TLatency.Count {
		t.Fatalf("T completions shrank across the axis: %d then %d",
			doc.Cells[0].TLatency.Count, doc.Cells[1].TLatency.Count)
	}
}

// TestArtifacts arms trace + metrics sampling and fetches each artifact.
func TestArtifacts(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	defer s.Close()
	spec := `{"cores":2,"warmupMs":5,"measureMs":20,"trace":true,"obsWindowUs":1000,
	  "jobs":[{"name":"db","class":"L","count":1},{"name":"bg","class":"T","count":1}]}`
	code, body, _ := post(t, ts.URL+"/v1/sweeps?wait=1", spec)
	if code != http.StatusOK {
		t.Fatalf("submit: got %d (%s)", code, body)
	}
	id := jobID(t, body)
	for _, tc := range []struct{ name, ctype, marker string }{
		{"trace.json", "application/json", "traceEvents"},
		{"trace.txt", "text/plain; charset=utf-8", "in-NSQ"},
		{"metrics.csv", "text/csv", "t_us"},
		{"metrics.svg", "image/svg+xml", "<svg"},
	} {
		code, data, hdr := get(t, fmt.Sprintf("%s/v1/jobs/%s/cells/0/%s", ts.URL, id, tc.name))
		if code != http.StatusOK {
			t.Fatalf("%s: got %d (%s)", tc.name, code, data)
		}
		if ct := hdr.Get("Content-Type"); ct != tc.ctype {
			t.Fatalf("%s: content type %q, want %q", tc.name, ct, tc.ctype)
		}
		if !bytes.Contains(data, []byte(tc.marker)) {
			t.Fatalf("%s: missing marker %q in %.80s...", tc.name, tc.marker, data)
		}
	}
	if code, _, _ := get(t, ts.URL+"/v1/jobs/"+id+"/cells/0/bogus"); code != http.StatusNotFound {
		t.Fatalf("bogus artifact: got %d, want 404", code)
	}

	// An artifact-free run 404s rather than serving empty bodies.
	_, body, _ = post(t, ts.URL+"/v1/sweeps?wait=1", smallScenario)
	plain := jobID(t, body)
	if code, _, _ := get(t, ts.URL+"/v1/jobs/"+plain+"/cells/0/trace.json"); code != http.StatusNotFound {
		t.Fatalf("artifact on artifact-free run: got %d, want 404", code)
	}
}

// TestResultNotReady returns 409 while the job is still queued or running.
func TestResultNotReady(t *testing.T) {
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 1})
	s.runPoint = blockingStub(release)
	defer func() { close(release); s.Close() }()

	_, body, _ := post(t, ts.URL+"/v1/sweeps", smallScenario)
	id := jobID(t, body)
	if code, _, _ := get(t, ts.URL+"/v1/jobs/"+id+"/result"); code != http.StatusConflict {
		t.Fatalf("result before done: got %d, want 409", code)
	}
	if code, _, _ := get(t, ts.URL+"/v1/jobs/nope/result"); code != http.StatusNotFound {
		t.Fatalf("unknown job: got %d, want 404", code)
	}
}

// TestFailedJobSurfaces turns a simulated panic into a failed job, not a
// dead daemon.
func TestFailedJobSurfaces(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	s.runPoint = func(scenario.Scenario) (cellOutput, error) { panic("boom") }
	defer s.Close()
	code, body, _ := post(t, ts.URL+"/v1/sweeps?wait=1", smallScenario)
	if code != http.StatusInternalServerError {
		t.Fatalf("submit: got %d, want 500 (%s)", code, body)
	}
	var st jobStatusDoc
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != "failed" || !strings.Contains(st.Error, "boom") {
		t.Fatalf("status = %+v, want failed with the panic message", st)
	}
	// The worker survived: the next job runs normally.
	s.runPoint = s.simulatePoint
	if code, body, _ := post(t, ts.URL+"/v1/sweeps?wait=1", smallScenario); code != http.StatusOK {
		t.Fatalf("post-panic submit: got %d (%s)", code, body)
	}
}

// TestMetricsEndpoint sanity-checks the counters document.
func TestMetricsEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 3, QueueDepth: 7})
	defer s.Close()
	if code, _, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz: got %d, want 200", code)
	}
	_, body, _ := post(t, ts.URL+"/v1/sweeps?wait=1", smallScenario)
	if id := jobID(t, body); id == "" {
		t.Fatalf("no job id in %s", body)
	}
	var m metricsDoc
	_, mb, _ := get(t, ts.URL+"/metrics.json")
	if err := json.Unmarshal(mb, &m); err != nil {
		t.Fatal(err)
	}
	if m.Workers != 3 || m.QueueCapacity != 7 {
		t.Fatalf("workers/queueCapacity = %d/%d, want 3/7", m.Workers, m.QueueCapacity)
	}
	if m.JobsAccepted != 1 || m.JobsCompleted != 1 || m.CellsRun != 1 {
		t.Fatalf("accepted/completed/cellsRun = %d/%d/%d, want 1/1/1",
			m.JobsAccepted, m.JobsCompleted, m.CellsRun)
	}
	if m.GitRev != "test" {
		t.Fatalf("gitRev = %q, want test", m.GitRev)
	}
}

// TestJobsList reports every job in submission order.
func TestJobsList(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	defer s.Close()
	_, b1, _ := post(t, ts.URL+"/v1/sweeps?wait=1", smallScenario)
	_, b2, _ := post(t, ts.URL+"/v1/sweeps?wait=1", smallScenario)
	var list struct {
		Jobs []jobStatusDoc `json:"jobs"`
	}
	_, lb, _ := get(t, ts.URL+"/v1/jobs")
	if err := json.Unmarshal(lb, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 2 || list.Jobs[0].ID != jobID(t, b1) || list.Jobs[1].ID != jobID(t, b2) {
		t.Fatalf("jobs list %s not in submission order of %s, %s", lb, b1, b2)
	}
}

// TestSimulatePointArtifactsMatchSpec double-checks the artifact plumbing
// at the package level: a metrics-armed scenario yields exactly the two
// metrics exports — no trace, and no profile.* even though every fresh
// cell is profiled for the fleet telemetry — and a scenario that arms
// nothing yields no artifacts at all.
func TestSimulatePointArtifactsMatchSpec(t *testing.T) {
	s := New(Config{GitRev: "test"})
	defer s.Close()
	sc, err := scenario.Parse([]byte(`{"cores":2,"warmupMs":5,"measureMs":20,"obsWindowUs":1000,
	  "jobs":[{"name":"db","class":"L","count":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.simulatePoint(sc)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, a := range out.artifacts {
		if len(a.Data) == 0 {
			t.Fatalf("%s is empty", a.Name)
		}
		names = append(names, a.Name)
	}
	if got := strings.Join(names, " "); got != "metrics.csv metrics.svg" {
		t.Fatalf("artifacts = %q, want the metrics pair only", got)
	}
	if !bytes.HasPrefix(out.artifacts[0].Data, []byte("t_us,")) {
		t.Fatalf("metrics CSV lacks the sampler header: %.40s", out.artifacts[0].Data)
	}
	if out.result.Profile != nil {
		t.Fatal("unprofiled scenario kept its telemetry profile in the result")
	}
	if out.result.LTenantLatency.Count == 0 || out.result.LTenantLatency.Mean <= sim.Duration(0) {
		t.Fatalf("empty L latency in result: %+v", out.result.LTenantLatency)
	}

	plain, err := scenario.Parse([]byte(smallScenario))
	if err != nil {
		t.Fatal(err)
	}
	if out, err = s.simulatePoint(plain); err != nil {
		t.Fatal(err)
	}
	if len(out.artifacts) != 0 {
		t.Fatalf("unarmed scenario rendered %d artifacts", len(out.artifacts))
	}
}

// TestFinishedJobsBounded checks the job table keeps at most
// maxFinishedJobs finished jobs, forgetting the oldest first (their GETs
// answer 404), while a job still running is never evicted.
func TestFinishedJobsBounded(t *testing.T) {
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 4})
	s.runPoint = func(sc scenario.Scenario) (cellOutput, error) {
		if sc.Seed == 7 {
			<-release
		}
		return cellOutput{}, nil
	}
	submit := func(seed uint64) *job {
		t.Helper()
		sc, err := scenario.Parse([]byte(smallScenario))
		if err != nil {
			t.Fatal(err)
		}
		sc.Seed = seed
		jb := newJob(jobSweep)
		jb.base = sc
		jb.points = []scenario.Point{{Scenario: sc}}
		if code := s.submit(jb); code != http.StatusAccepted {
			t.Fatalf("submit: got %d", code)
		}
		return jb
	}
	blocker := submit(7)
	waitState(t, ts.URL, blocker.id, "running")
	var quick []*job
	for i := 0; i < maxFinishedJobs+10; i++ {
		jb := submit(0)
		<-jb.done
		quick = append(quick, jb)
	}
	// retire runs just after done closes; wait for the last one.
	deadline := time.Now().Add(10 * time.Second)
	for len(s.listJobs()) != maxFinishedJobs+1 {
		if time.Now().After(deadline) {
			t.Fatalf("job table holds %d jobs, want %d", len(s.listJobs()), maxFinishedJobs+1)
		}
		time.Sleep(time.Millisecond)
	}
	if code, _, _ := get(t, ts.URL+"/v1/jobs/"+blocker.id); code != http.StatusOK {
		t.Fatalf("running job evicted: GET got %d", code)
	}
	for _, jb := range quick[:10] {
		if code, _, _ := get(t, ts.URL+"/v1/jobs/"+jb.id+"/result"); code != http.StatusNotFound {
			t.Fatalf("oldest finished job %s kept: GET got %d, want 404", jb.id, code)
		}
	}
	if code, _, _ := get(t, ts.URL+"/v1/jobs/"+quick[10].id+"/result"); code != http.StatusOK {
		t.Fatalf("newer finished job %s evicted: GET got %d", quick[10].id, code)
	}
	var list struct {
		Jobs []jobStatusDoc `json:"jobs"`
	}
	_, lb, _ := get(t, ts.URL+"/v1/jobs")
	if err := json.Unmarshal(lb, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != maxFinishedJobs+1 || list.Jobs[0].ID != blocker.id {
		t.Fatalf("/v1/jobs lists %d jobs starting at %s, want %d starting at %s",
			len(list.Jobs), list.Jobs[0].ID, maxFinishedJobs+1, blocker.id)
	}

	close(release)
	s.Close()
	if n := len(s.listJobs()); n != maxFinishedJobs {
		t.Fatalf("after the blocker finished the table holds %d jobs, want %d", n, maxFinishedJobs)
	}
	if _, ok := s.jobByID(quick[10].id); ok {
		t.Fatalf("finishing the blocker did not evict the oldest finished job %s", quick[10].id)
	}
}
