package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// mustGet drives one GET through the handler and returns the response's
// request id.
func mustGet(t *testing.T, h http.Handler, path string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: got %d", path, rec.Code)
	}
	return rec.Header().Get("X-Request-ID")
}

// TestMetricsPrometheus scrapes GET /metrics after a real run and checks
// the exposition format: content type, health counters, and the fleet
// layer-latency summaries fed by the always-on profiler.
func TestMetricsPrometheus(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 5})
	defer s.Close()
	if _, body, _ := post(t, ts.URL+"/v1/sweeps?wait=1", smallScenario); jobID(t, body) == "" {
		t.Fatalf("no job id in %s", body)
	}

	code, data, hdr := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: got %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != promContentType {
		t.Fatalf("content type %q, want %q", ct, promContentType)
	}
	text := string(data)
	for _, want := range []string{
		"# TYPE ddserve_workers gauge",
		"ddserve_workers 2",
		"ddserve_queue_capacity 5",
		"# TYPE ddserve_cells_run_total counter",
		"ddserve_cells_run_total 1",
		"ddserve_jobs_completed_total 1",
		"# TYPE ddserve_layer_latency_seconds summary",
		`ddserve_layer_latency_seconds{stack="daredevil",class="L",layer="queue_wait",quantile="0.99"}`,
		`ddserve_layer_latency_seconds_sum{stack="daredevil",class="T",layer="total"}`,
		`ddserve_layer_latency_seconds_count{stack="daredevil",class="L",layer="gc"} `,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Minimal format lint: every sample line is "name{labels} value" or
	// "name value" with a parseable float, every meta line starts with #.
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable sample line %q", line)
		}
		var v float64
		if _, err := fmt.Sscanf(line[i+1:], "%g", &v); err != nil {
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
	}

	// The legacy JSON document still serves, from its new path.
	var m metricsDoc
	_, mb, _ := get(t, ts.URL+"/metrics.json")
	if err := json.Unmarshal(mb, &m); err != nil {
		t.Fatalf("/metrics.json not JSON: %v", err)
	}
	if m.CellsRun != 1 {
		t.Fatalf("legacy cellsRun = %d, want 1", m.CellsRun)
	}
}

// TestProfileArtifacts arms "profile" and fetches the three rendered
// artifacts; the result document carries the per-layer breakdown.
func TestProfileArtifacts(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	defer s.Close()
	spec := `{"cores":2,"warmupMs":5,"measureMs":20,"profile":true,
	  "jobs":[{"name":"db","class":"L","count":1},{"name":"bg","class":"T","count":1}]}`
	code, body, _ := post(t, ts.URL+"/v1/sweeps?wait=1", spec)
	if code != http.StatusOK {
		t.Fatalf("submit: got %d (%s)", code, body)
	}
	id := jobID(t, body)
	for _, tc := range []struct{ name, ctype, marker string }{
		{"profile.txt", "text/plain; charset=utf-8", "queue_wait"},
		{"profile.folded", "text/plain; charset=utf-8", "daredevil;"},
		{"profile.svg", "image/svg+xml", "<svg"},
		{"profile.json", "application/json", `"layer": "queue_wait"`},
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

	_, res, _ := get(t, ts.URL+"/v1/jobs/"+id+"/result")
	var doc sweepResultDoc
	if err := json.Unmarshal(res, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Cells) != 1 || len(doc.Cells[0].Profile) != 2 {
		t.Fatalf("result breakdown groups = %d, want 2 (L and T)", len(doc.Cells[0].Profile))
	}
	for _, g := range doc.Cells[0].Profile {
		var share float64
		for _, l := range g.Layers {
			share += l.SharePct
		}
		if g.Requests == 0 || share <= 0 || share > 100.000001 {
			t.Fatalf("class %s: requests=%d layer share sum=%v", g.Class, g.Requests, share)
		}
	}

	// An unprofiled run carries neither breakdown nor artifacts...
	_, body, _ = post(t, ts.URL+"/v1/sweeps?wait=1", smallScenario)
	plain := jobID(t, body)
	_, res, _ = get(t, ts.URL+"/v1/jobs/"+plain+"/result")
	var plainDoc sweepResultDoc
	if err := json.Unmarshal(res, &plainDoc); err != nil {
		t.Fatal(err)
	}
	if len(plainDoc.Cells[0].Profile) != 0 {
		t.Fatal("unprofiled cell carries a breakdown")
	}
	if code, _, _ := get(t, ts.URL+"/v1/jobs/"+plain+"/cells/0/profile.txt"); code != http.StatusNotFound {
		t.Fatalf("profile artifact on unprofiled run: got %d, want 404", code)
	}
	// ...but still feeds the fleet summaries (profiling is always on
	// inside simulatePoint).
	_, data, _ := get(t, ts.URL+"/metrics")
	if !strings.Contains(string(data), "ddserve_layer_latency_seconds_count") {
		t.Fatal("fleet summaries missing after unprofiled run")
	}
}

// TestRequestLogging checks the middleware: X-Request-ID on every
// response, one structured log line per request carrying the same id.
func TestRequestLogging(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{Workers: 1, Logger: slog.New(slog.NewTextHandler(&buf, nil))}
	cfg.GitRev = "test"
	s := New(cfg)
	defer s.Close()
	h := s.Handler()

	req1 := mustGet(t, h, "/healthz")
	req2 := mustGet(t, h, "/metrics")
	if req1 == "" || req2 == "" || req1 == req2 {
		t.Fatalf("request ids not unique: %q vs %q", req1, req2)
	}
	logs := buf.String()
	for _, want := range []string{
		"reqID=" + req1, "reqID=" + req2,
		"path=/healthz", "path=/metrics",
		"status=200", "method=GET",
	} {
		if !strings.Contains(logs, want) {
			t.Errorf("log missing %q in:\n%s", want, logs)
		}
	}
}
