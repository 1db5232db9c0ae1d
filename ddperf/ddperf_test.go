package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"daredevil/internal/harness"
	"daredevil/internal/sim"
)

// benchmarkFile mirrors the parts of BENCHMARK.json the benchmark must
// agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []listedMetric `json:"end_to_end"`
	PerLayer []listedMetric `json:"per_layer"`
}

// listedMetric is one metric entry of BENCHMARK.json.
type listedMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that each metric BENCHMARK.json names is printed with its unit
// and that every correctness check passes.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(f.Workloads), len(workloads))
	}
	for _, w := range f.Workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w.Name, seed: 3, seconds: 0.2, trace: trace, out: t.TempDir(), commit: "test"}
			res, err := execute(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d failed: %v", w.Name, trace, res.Failed, res.Attempted, res.Failures)
			}
			if res.Digest == "" {
				t.Errorf("%s: no result digest", w.Name)
			}
			want := f.EndToEnd
			if trace {
				want = f.PerLayer
			}
			var out struct {
				Correct bool              `json:"correct"`
				Metrics map[string]metric `json:"metrics"`
			}
			line := res.outcomeLine()
			if err := json.Unmarshal([]byte(line), &out); err != nil {
				t.Fatalf("%s: outcome line %q: %v", w.Name, line, err)
			}
			if !out.Correct {
				t.Errorf("%s trace=%v: outcome not correct", w.Name, trace)
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json names %d", w.Name, trace, len(out.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not printed", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: metric %s printed in %q, BENCHMARK.json says %q", w.Name, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
			if trace {
				checkTraced(t, w.Name, out.Metrics)
			}
		}
	}
}

// checkTraced checks what the traced run must show about the layers.
func checkTraced(t *testing.T, workload string, m map[string]metric) {
	t.Helper()
	sum := 0.0
	for _, l := range layerNames {
		sum += m[l+".self_frac"].Value
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("%s: layer self fractions sum to %v", workload, sum)
	}
	switch workload {
	case "mix-steady":
		if m["ftl.self_frac"].Value != 0 || m["ftl.gc_runs"].Value != 0 {
			t.Errorf("mix-steady reached the FTL")
		}
	case "aged-gc":
		if m["ftl.gc_runs"].Value == 0 || m["ftl.self_frac"].Value == 0 {
			t.Errorf("aged-gc: no garbage collection seen")
		}
	case "serve-zipf":
		if r := m["serve.cache_hit_ratio"].Value; r <= 0 || r >= 1 {
			t.Errorf("serve-zipf: cache hit ratio %v not strictly between 0 and 1", r)
		}
	}
}

// TestSeededBadResultsCount checks that a result differing from its
// reference is counted as a failure, on both kinds of workload.
func TestSeededBadResultsCount(t *testing.T) {
	g := &grid{docs: agedGCDocs(5)}
	ref, _, err := g.pass(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	g.ref = ref
	g.ref[1].json = []byte(`{"tampered":true}`) // as if an earlier run produced another digest
	res := &result{Samples: map[string]int{}}
	if res.values, err = g.timed(res, 0, nil); err != nil {
		t.Fatal(err)
	}
	if res.Failed != minPasses || res.Attempted != minPasses*len(ref) {
		t.Errorf("tampered reference: %d of %d failed, want %d of %d", res.Failed, res.Attempted, minPasses, minPasses*len(ref))
	}
	if err := res.finish(); err != nil {
		t.Fatal(err)
	}
	if res.FailedFrac <= 0 || strings.Contains(res.outcomeLine(), `"correct":true`) {
		t.Errorf("failed_frac = %v, outcome %s", res.FailedFrac, res.outcomeLine())
	}

	s := &serveRun{first: map[int][]byte{}}
	doc := []byte(`{"grid":1,"cells":[{"lLatency":{"count":10}}]}`)
	if err := s.checkDoc(7, doc); err != nil {
		t.Fatal(err)
	}
	if err := s.checkDoc(7, doc); err != nil {
		t.Errorf("identical document: %v", err)
	}
	if err := s.checkDoc(7, []byte(`{"grid":1,"cells":[{"lLatency":{"count":11}}]}`)); err == nil {
		t.Error("a document differing from the first one served passed")
	}
	if err := s.checkDoc(8, []byte(`{"grid":1,"cells":[{"lLatency":{"count":0}}]}`)); err == nil {
		t.Error("a cell with no completed operations passed")
	}
}

// TestShapeCheck checks the paper-shape check fails when daredevil's L
// tail is not below vanilla's.
func TestShapeCheck(t *testing.T) {
	cell := func(k harness.StackKind, p99 sim.Duration) cellRun {
		c := cellRun{kind: k, label: string(k)}
		c.result.LTenantLatency.P99 = p99
		return c
	}
	good := []cellRun{cell(harness.Vanilla, 900), cell(harness.DareFull, 100)}
	for _, err := range shapeChecks(good) {
		if err != nil {
			t.Errorf("good shape: %v", err)
		}
	}
	bad := []cellRun{cell(harness.Vanilla, 100), cell(harness.DareFull, 100)}
	if errs := shapeChecks(bad); len(errs) != 1 || errs[0] == nil {
		t.Errorf("equal tails passed the shape check: %v", errs)
	}
}

func TestFoldProfiles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	x := 0
	if _, err := profiled(path, func() (phase, error) {
		for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
			x += spin(1000)
		}
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	_ = x
	fr, err := foldProfiles([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, l := range layerNames {
		sum += fr[l+".self_frac"]
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("fractions sum to %v: %v", sum, fr)
	}
	if fr["other.self_frac"] < 0.5 {
		t.Errorf("a test spinning in package main folded %v into other", fr["other.self_frac"])
	}
}

// TestFoldTraces checks the reading of pprof -traces output: a stack's
// time goes to its first (innermost) frame, inlined or not.
func TestFoldTraces(t *testing.T) {
	const text = `File: ddperf
Type: cpu
-----------+-------------------------------------------------------
      30ms   daredevil/internal/sim.(*Engine).RunUntil
             main.runCell
-----------+-------------------------------------------------------
      1.2s   runtime.mallocgc
             daredevil/internal/nvme.(*Device).Submit
-----------+-------------------------------------------------------
      70ms   net/http.(*conn).serve (inline)
             main.spin
-----------+-------------------------------------------------------
`
	fr, err := foldTraces(text)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"sim.self_frac":            0.03 / 1.3,
		"runtime.self_frac":        1.2 / 1.3,
		"other.self_frac":          0.07 / 1.3,
		"nvme.self_frac":           0,
		"runtime.malloc_self_frac": 1.2 / 1.3,
		"serve.io_self_frac":       0.07 / 1.3,
	}
	for k, v := range want {
		if math.Abs(fr[k]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, fr[k], v)
		}
	}
	if _, err := foldTraces("-----------+---\n  tenms   main.spin\n"); err == nil {
		t.Error("an unreadable sample time was accepted")
	}
}

//go:noinline
func spin(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i * i % 7
	}
	return s
}

func TestPackageAndLayerOf(t *testing.T) {
	for _, c := range []struct{ fn, pkg, layer string }{
		{"daredevil/internal/sim.(*Engine).RunUntil", "daredevil/internal/sim", "sim"},
		{"daredevil/internal/blkswitch.(*Stack).Submit.func1", "daredevil/internal/blkswitch", "stacks"},
		{"daredevil/internal/obs.(*Observer).Start", "daredevil/internal/obs", "prof"},
		{"daredevil/internal/fault.(*Injector).Hit", "daredevil/internal/fault", "other"},
		{"runtime.mallocgc", "runtime", "runtime"},
		{"internal/runtime/maps.(*Map).getWithKey", "internal/runtime/maps", "runtime"},
		{"net/http.(*conn).serve", "net/http", "other"},
		{"slices.SortFunc[go.shape.[]int,go.shape.int]", "slices", "other"},
		{"main.spin", "main", "other"},
	} {
		if got := pkgOf(c.fn); got != c.pkg {
			t.Errorf("pkgOf(%q) = %q, want %q", c.fn, got, c.pkg)
		}
		if got := layerOf(c.pkg); got != c.layer {
			t.Errorf("layerOf(%q) = %q, want %q", c.pkg, got, c.layer)
		}
	}
	if !isServeIO("net/http") || !isServeIO("encoding/json") || isServeIO("daredevil/internal/serve") {
		t.Error("isServeIO misclassifies")
	}
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the metric tables in
// step.
func TestBenchmarkFileMatches(t *testing.T) {
	f := readBenchmarkFile(t)
	for i, w := range workloads {
		if i >= len(f.Workloads) || f.Workloads[i].Name != w.name {
			t.Errorf("workload %d: benchmark has %q, BENCHMARK.json differs", i, w.name)
		}
	}
	check := func(kind string, defs []def, listed []listedMetric) {
		units := map[string]string{}
		for _, m := range listed {
			units[m.Name] = m.Unit
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("%s: %s has better %q, want higher or lower", kind, m.Name, m.Better)
			}
			// End-to-end metrics carry a bound of at most 0.25; per-layer
			// ones carry none.
			if bounded := kind == "end_to_end"; (m.Bound != nil) != bounded ||
				bounded && (*m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("%s: %s has a missing, unexpected or out-of-range bound", kind, m.Name)
			}
		}
		if len(units) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(units), len(defs))
		}
		for _, d := range defs {
			if u, ok := units[d.name]; !ok || u != d.unit {
				t.Errorf("%s: %s (%s) missing or differently unitted in BENCHMARK.json", kind, d.name, d.unit)
			}
		}
	}
	check("end_to_end", endToEnd, f.EndToEnd)
	check("per_layer", perLayer, f.PerLayer)
}

func TestParseFlags(t *testing.T) {
	cfg, err := parseFlags([]string{"--workload", "aged-gc", "--seed", "9", "--seconds", "3", "--trace", "1"})
	if err != nil || cfg.workload != "aged-gc" || cfg.seed != 9 || cfg.seconds != 3 || !cfg.trace {
		t.Errorf("parseFlags = %+v, %v", cfg, err)
	}
	for _, bad := range [][]string{
		{"--workload", "nope"},
		{"--workload", "aged-gc", "--trace", "2"},
		{"--workload", "aged-gc", "--seconds", "0"},
		{"--workload", "aged-gc", "extra"},
	} {
		if _, err := parseFlags(bad); err == nil {
			t.Errorf("parseFlags(%q) accepted", bad)
		}
	}
}
