package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"daredevil"
)

func TestParseStackKnown(t *testing.T) {
	for _, name := range []string{
		"vanilla", "blk-switch", "static-part", "dare-base", "dare-sched", "daredevil",
	} {
		kind, err := parseStack(name)
		if err != nil {
			t.Fatalf("parseStack(%q): %v", name, err)
		}
		if string(kind) != name {
			t.Fatalf("parseStack(%q) = %q", name, kind)
		}
	}
}

func TestParseStackUnknown(t *testing.T) {
	if _, err := parseStack("bogus"); err == nil {
		t.Fatal("unknown stack must error")
	}
}

func TestParsedKindsBuild(t *testing.T) {
	kind, err := parseStack("daredevil")
	if err != nil {
		t.Fatal(err)
	}
	sim := daredevil.NewSimulation(daredevil.ServerMachine(2), kind)
	sim.AddLTenants(1)
	res := sim.Run(daredevil.Millisecond, 10*daredevil.Millisecond)
	if res.LTenantLatency.Count == 0 {
		t.Fatal("parsed kind did not produce a working simulation")
	}
}

func TestRunConfig(t *testing.T) {
	if err := runConfig("../../examples/scenarios/mixed.json", false, "", 0, 0, ""); err != nil {
		t.Fatal(err)
	}
	if err := runConfig("../../examples/scenarios/multins.json", true, "", 0, 0, ""); err != nil {
		t.Fatal(err)
	}
	if err := runConfig("/nonexistent.json", false, "", 0, 0, ""); err == nil {
		t.Fatal("missing file must error")
	}
}

// TestRunConfigTraced runs the shipped traced scenario end to end: the
// scenario file arms tracing and metrics itself, and the trace JSON lands
// next to the scenario unless -trace overrides the path.
func TestRunConfigTraced(t *testing.T) {
	dir := t.TempDir()
	src, err := os.ReadFile("../../examples/scenarios/traced.json")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "traced.json")
	if err := os.WriteFile(path, src, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runConfig(path, false, "", 0, 0, ""); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(filepath.Join(dir, "traced.trace.json"))
	if err != nil {
		t.Fatalf("scenario-armed trace not written: %v", err)
	}
	if !json.Valid(out) {
		t.Fatal("trace output is not valid JSON")
	}
	if !strings.Contains(string(out), "traceEvents") {
		t.Fatal("trace output missing traceEvents envelope")
	}
}

// TestRunConfigProfiled runs the shipped profiled scenario: the scenario
// file arms the layer profiler itself and the mergeable profile JSON lands
// next to the scenario.
func TestRunConfigProfiled(t *testing.T) {
	dir := t.TempDir()
	src, err := os.ReadFile("../../examples/scenarios/profiled.json")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "profiled.json")
	if err := os.WriteFile(path, src, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runConfig(path, false, "", 0, 0, ""); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(filepath.Join(dir, "profiled.profile.json"))
	if err != nil {
		t.Fatalf("scenario-armed profile not written: %v", err)
	}
	if !json.Valid(out) {
		t.Fatal("profile output is not valid JSON")
	}
	for _, want := range []string{`"stack": "daredevil"`, `"layer": "queue_wait"`, `"layer": "gc"`} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("profile output missing %q", want)
		}
	}
}

// TestCheckCompareRejectsObsFlags checks -compare refuses each flag it
// cannot honour, naming it, and accepts the flags it does use.
func TestCheckCompareRejectsObsFlags(t *testing.T) {
	parse := func(args ...string) *flag.FlagSet {
		t.Helper()
		fs := flag.NewFlagSet("ddsim", flag.ContinueOnError)
		fs.Bool("compare", false, "")
		fs.Bool("breakdown", false, "")
		fs.String("trace", "", "")
		fs.Int("trace-limit", 0, "")
		fs.Int("obs-window-us", 0, "")
		fs.String("prof", "", "")
		fs.Int("l", 4, "")
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return fs
	}
	for _, args := range [][]string{
		{"-compare", "-breakdown"},
		{"-compare", "-trace", "t.json"},
		{"-compare", "-obs-window-us", "1000"},
		{"-compare", "-prof", "p.json"},
	} {
		err := checkCompare(parse(args...))
		if err == nil || !strings.Contains(err.Error(), args[1]) {
			t.Errorf("%v: got %v, want an error naming %s", args, err, args[1])
		}
	}
	if err := checkCompare(parse("-compare", "-l", "2")); err != nil {
		t.Errorf("plain -compare rejected: %v", err)
	}
}
