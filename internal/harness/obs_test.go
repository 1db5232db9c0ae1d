package harness

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"daredevil/internal/obs"
	"daredevil/internal/sim"
)

// obsScale keeps instrumented cells cheap but long enough that the brownout
// fault window fires and escalates host recovery.
var obsScale = Scale{Warmup: 20 * sim.Millisecond, Measure: 120 * sim.Millisecond}

// TestObsDemoExportsComplete runs the instrumented demo cell once and
// checks its exports carry data: valid trace JSON, the phase table, a CSV
// matrix, an SVG document, and a non-empty flight dump from the recovery
// escalations.
func TestObsDemoExportsComplete(t *testing.T) {
	arts, err := RunObsDemo(obsScale)
	if err != nil {
		t.Fatal(err)
	}
	trace := artifactData(t, arts, "trace.json")
	if !json.Valid(trace) {
		t.Fatal("trace export is not valid JSON")
	}
	if !bytes.Contains(trace, []byte("traceEvents")) {
		t.Fatal("trace export missing traceEvents envelope")
	}
	if !bytes.Contains(artifactData(t, arts, "trace.txt"), []byte("in-NSQ")) {
		t.Fatal("trace phase table missing its phase columns")
	}
	lines := strings.Split(strings.TrimSpace(string(artifactData(t, arts, "metrics.csv"))), "\n")
	if len(lines) < 3 || !strings.HasPrefix(lines[0], "t_us,") {
		t.Fatalf("metrics CSV malformed (%d lines, header %q)", len(lines), lines[0])
	}
	if !strings.Contains(lines[0], "recovery.timeouts") {
		t.Fatalf("metrics CSV missing recovery gauges: %q", lines[0])
	}
	if !bytes.HasPrefix(artifactData(t, arts, "metrics.svg"), []byte("<svg")) {
		t.Fatal("SVG export malformed")
	}
	if !bytes.Contains(artifactData(t, arts, "flight.txt"), []byte("flight dump 1:")) {
		t.Fatal("brownout cell must capture at least one flight dump")
	}
}

// artifactData returns the named artifact's bytes, failing the test when
// the list lacks it.
func artifactData(t *testing.T, arts []Artifact, name string) []byte {
	t.Helper()
	for _, a := range arts {
		if a.Name == name {
			return a.Data
		}
	}
	t.Fatalf("no %s among the artifacts", name)
	return nil
}

// runObsCells runs n instrumented fault-injected cells through the worker
// pool and returns each cell's concatenated exports.
func runObsCells(n int) []string {
	return RunCells(n, func(i int) string {
		arts, err := RunObsDemo(obsScale)
		if err != nil {
			return "error: " + err.Error()
		}
		var b bytes.Buffer
		for _, a := range arts {
			b.WriteString(a.Name)
			b.Write(a.Data)
		}
		return b.String()
	})
}

// TestObsExportsDeterministicAcrossParallelism is the observability
// determinism gate: every export of a fault-injected cell must be
// byte-identical whether cells run serially or
// through the full worker pool.
func TestObsExportsDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six instrumented cells")
	}
	defer SetParallelism(Parallelism())
	SetParallelism(1)
	serial := runObsCells(3)
	SetParallelism(8)
	parallel := runObsCells(3)
	for i := range serial {
		if strings.HasPrefix(serial[i], "error:") {
			t.Fatal(serial[i])
		}
		if serial[i] != parallel[i] {
			t.Fatalf("cell %d exports differ between -j1 and -j8", i)
		}
	}
	// Same-seed repeats must also agree cell-for-cell.
	if serial[0] != serial[1] || serial[1] != serial[2] {
		t.Fatal("identical cells produced different exports in one batch")
	}
}

// TestEnableObsIdempotent checks repeated EnableObs calls reuse the same
// observer and do not double-register gauges.
func TestEnableObsIdempotent(t *testing.T) {
	env := NewEnv(SVM(2), DareFull)
	o1 := env.EnableObs(0, sim.Millisecond)
	n := len(o1.Registry.Gauges())
	o2 := env.EnableObs(obs.DefaultTraceLimit, sim.Millisecond)
	if o1 != o2 {
		t.Fatal("EnableObs must reuse the cell's observer")
	}
	if got := len(o2.Registry.Gauges()); got != n {
		t.Fatalf("gauges grew from %d to %d on second EnableObs", n, got)
	}
	if o2.Tracer() == nil {
		t.Fatal("second EnableObs must still arm tracing")
	}
}

// TestObsOffCellIsUninstrumented pins the default: cells never touched by
// EnableObs have no observer and requests carry no spans.
func TestObsOffCellIsUninstrumented(t *testing.T) {
	env := NewEnv(SVM(2), DareFull)
	mix := NewMix(env)
	mix.AddL(1, 0)
	mix.StartAll()
	env.Eng.RunUntil(sim.Time(5 * sim.Millisecond))
	if env.Obs != nil {
		t.Fatal("observer must stay nil unless EnableObs is called")
	}
}
