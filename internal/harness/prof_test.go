package harness

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"daredevil/internal/prof"
	"daredevil/internal/sim"
)

// profScale keeps the profiled grid cheap: 12 cells (6 stacks × 2 mixes)
// still finish in a couple of seconds at this scale.
var profScale = Scale{Warmup: 5 * sim.Millisecond, Measure: 20 * sim.Millisecond}

// TestProfiledCell checks a single profiled cell end to end: the result
// carries a profile whose layers account for the requests' total latency,
// and the cell's exports render.
func TestProfiledCell(t *testing.T) {
	spec := profGridSpecs(profScale)[0]
	cell := BuildCell(spec)
	res := cell.Run(spec.Warmup, spec.Measure)
	if res.Profile == nil {
		t.Fatal("profiled cell returned no profile")
	}
	if got := len(res.Profile.Groups); got != 2 {
		t.Fatalf("groups = %d, want 2 (L and T)", got)
	}
	for _, g := range res.Profile.Groups {
		if g.Stack != string(spec.Kind) {
			t.Fatalf("group stack %q, want %q", g.Stack, spec.Kind)
		}
		if g.Requests == 0 {
			t.Fatalf("group %s/%s has no requests", g.Stack, g.Class)
		}
		if len(g.Layers) != prof.NumLayers {
			t.Fatalf("group %s has %d layers", g.Class, len(g.Layers))
		}
		// The taxonomy must account for the total latency mass: layer sums
		// equal the total digest's sum exactly (clamps only move mass
		// between layers, never drop it) for fully-stamped spans; failed
		// or recovered spans may leave a small unattributed remainder.
		var layerSum int64
		for _, l := range g.Layers {
			layerSum += l.Sum
		}
		if layerSum == 0 || layerSum > g.Total.Sum {
			t.Fatalf("group %s: layer sum %d vs total %d", g.Class, layerSum, g.Total.Sum)
		}
	}
	arts, err := cell.Artifacts()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, a := range arts {
		names = append(names, a.Name)
	}
	if got := strings.Join(names, " "); got != "profile.txt profile.folded profile.svg profile.json" {
		t.Fatalf("profiled cell artifacts = %s", got)
	}
	if !strings.Contains(string(artifactData(t, arts, "profile.txt")), "queue_wait") {
		t.Fatal("profile table missing layer rows")
	}
	if folded := artifactData(t, arts, "profile.folded"); !strings.Contains(string(folded), string(spec.Kind)+";") {
		t.Fatalf("folded stacks missing stack frames:\n%s", folded)
	}
	if cell.Wall.Empty() {
		t.Fatal("wall self-profile empty on profiled run")
	}
	var wall bytes.Buffer
	if err := cell.WriteSelfProfile(&wall); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(wall.String(), "measure") {
		t.Fatalf("self-profile missing phases:\n%s", wall.String())
	}
}

// TestUnprofiledCellHasNoProfile pins the off path: no spec flag, no
// profile, no wall metering.
func TestUnprofiledCellHasNoProfile(t *testing.T) {
	spec := profGridSpecs(profScale)[0]
	spec.Profile = false
	cell := BuildCell(spec)
	res := cell.Run(spec.Warmup, spec.Measure)
	if res.Profile != nil {
		t.Fatal("unprofiled cell carries a profile")
	}
	if !cell.Wall.Empty() {
		t.Fatal("unprofiled cell metered wall time")
	}
	if arts, err := cell.Artifacts(); err != nil || len(arts) != 0 {
		t.Fatalf("unprofiled cell rendered %d artifacts (err %v)", len(arts), err)
	}
}

// TestResultProfileHasNoArtifacts pins the result-only profiler: the
// result carries the same profile as EnableProfile, but no profile.*
// export is rendered.
func TestResultProfileHasNoArtifacts(t *testing.T) {
	spec := profGridSpecs(profScale)[0]
	spec.Profile = false
	cell := BuildCell(spec)
	cell.EnableResultProfile()
	res := cell.Run(spec.Warmup, spec.Measure)
	if res.Profile == nil {
		t.Fatal("result-only profiling returned no profile")
	}
	if arts, err := cell.Artifacts(); err != nil || len(arts) != 0 {
		t.Fatalf("result-only profiling rendered %d artifacts (err %v)", len(arts), err)
	}
	spec.Profile = true
	want := RunCellSpec(spec)
	var a, b bytes.Buffer
	if err := res.Profile.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := want.Profile.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("result-only profile differs from the exported one")
	}
}

// TestProfDemoBitIdentityAcrossParallelism is the tentpole's determinism
// gate: the merged grid profile and every cell's profile — table, folded
// stacks, SVG, and JSON — must be byte-identical between -j1 and -j8.
func TestProfDemoBitIdentityAcrossParallelism(t *testing.T) {
	defer SetParallelism(Parallelism())

	SetParallelism(1)
	d1, err := RunProfDemo(profScale)
	if err != nil {
		t.Fatal(err)
	}
	SetParallelism(8)
	d8, err := RunProfDemo(profScale)
	if err != nil {
		t.Fatal(err)
	}

	if d1.Cells != 12 || len(d1.Artifacts) != 4*(d1.Cells+1) {
		t.Fatalf("grid of %d cells rendered %d artifacts", d1.Cells, len(d1.Artifacts))
	}
	if len(d1.Artifacts) != len(d8.Artifacts) {
		t.Fatalf("artifact counts differ: %d vs %d", len(d1.Artifacts), len(d8.Artifacts))
	}
	for i, a := range d1.Artifacts {
		if b := d8.Artifacts[i]; a.Name != b.Name || !bytes.Equal(a.Data, b.Data) {
			t.Errorf("artifact %d (%s vs %s) differs between -j1 and -j8", i, a.Name, b.Name)
		}
	}
	if d1.Merged.Requests() == 0 {
		t.Fatal("merged profile empty")
	}
}

// TestMergeCellProfilesOrderIndependent checks the grid-assembly merge is
// insensitive to cell order — the property that makes scheduling width
// irrelevant.
func TestMergeCellProfilesOrderIndependent(t *testing.T) {
	specs := profGridSpecs(profScale)[:3]
	results := RunCells(len(specs), func(i int) CellResult { return RunCellSpec(specs[i]) })
	fwd, ok := MergeCellProfiles(results)
	if !ok {
		t.Fatal("no profiles merged")
	}
	rev, _ := MergeCellProfiles([]CellResult{results[2], results[1], results[0]})
	var a, b bytes.Buffer
	if err := fwd.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := rev.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("MergeCellProfiles depends on cell order")
	}
}

// TestProfiledRunDoesNotPerturbResults pins the observation-only property:
// arming the profiler must not move a single simulated metric.
func TestProfiledRunDoesNotPerturbResults(t *testing.T) {
	spec := profGridSpecs(profScale)[1]
	on := RunCellSpec(spec)
	spec.Profile = false
	off := RunCellSpec(spec)
	on.Profile = nil
	got, err := json.Marshal(on)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(off)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("profiling changed results:\n on=%s\noff=%s", got, want)
	}
}
