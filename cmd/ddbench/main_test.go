package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"daredevil/internal/harness"
	"daredevil/internal/sim"
)

var testScale = harness.Scale{Warmup: 10 * sim.Millisecond, Measure: 40 * sim.Millisecond}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "bogus", testScale, "", ""); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestRunTable1Output(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "table1", testScale, "", ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 1", "daredevil", "[table1 done in"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunEveryExperimentDispatches(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	for _, name := range harness.ExperimentNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(&buf, name, testScale, "", ""); err != nil {
				t.Fatal(err)
			}
			if buf.Len() == 0 {
				t.Fatal("no output")
			}
		})
	}
}

func TestSVGOutput(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	for _, name := range []string{"fig2", "fig6", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig8"} {
		if err := run(&buf, name, testScale, dir, ""); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		data, err := os.ReadFile(filepath.Join(dir, name+".svg"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(string(data), "<svg") {
			t.Fatalf("%s: not an SVG", name)
		}
	}
}

func TestSVGSkippedForTextOnlyResults(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run(&buf, "table1", testScale, dir, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "table1.svg")); err == nil {
		t.Fatal("table1 should not emit an SVG (no chart form)")
	}
}

func TestJSONOutput(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run(&buf, "fig2", testScale, "", dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig2.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	for _, key := range []string{"name", "title", "columns", "rows", "notes"} {
		if _, ok := decoded[key]; !ok {
			t.Fatalf("JSON missing %q", key)
		}
	}
	if decoded["name"] != "fig2" {
		t.Fatalf("JSON name = %v, want fig2", decoded["name"])
	}
}

// TestProfOutput runs the profiled comparison grid at test scale and
// checks every artifact lands: the merged fleet set plus each cell's own.
func TestProfOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 12-cell profiled grid")
	}
	dir := t.TempDir()
	small := harness.Scale{Warmup: 5 * sim.Millisecond, Measure: 20 * sim.Millisecond}
	if err := runProf(dir, small); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"profile.txt", "profile.folded", "profile.svg", "profile.json",
		"daredevil-2L2T.txt", "daredevil-2L4T.svg", "vanilla-2L2T.txt", "vanilla-2L4T.json"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("missing artifact: %v", err)
		}
		if len(data) == 0 {
			t.Fatalf("%s is empty", name)
		}
	}
	folded, _ := os.ReadFile(filepath.Join(dir, "profile.folded"))
	for _, want := range []string{"daredevil;L;", "vanilla;T;", ";queue_wait ", ";chip "} {
		if !strings.Contains(string(folded), want) {
			t.Fatalf("folded stacks missing %q", want)
		}
	}
	merged, _ := os.ReadFile(filepath.Join(dir, "profile.json"))
	if !json.Valid(merged) {
		t.Fatal("profile.json is not valid JSON")
	}
}
