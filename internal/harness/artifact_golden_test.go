package harness

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestDemoArtifactsGolden pins every deterministic file ddbench -obs and
// -prof write, at obsScale and profScale, by SHA-256. The manifests under
// testdata/artifacts are in sha256sum format, so a ddbench run at the same
// windows can be checked directly:
//
//	ddbench -warmup 20ms -measure 120ms -obs DIR
//	(cd DIR && sha256sum -c .../testdata/artifacts/obs.sha256)
//
// The names, their order and their bytes must all match. Regenerate with
//
//	go test ./internal/harness -run TestDemoArtifactsGolden -update-golden
//
// only when a deliberate, reviewed change moves the output.
func TestDemoArtifactsGolden(t *testing.T) {
	dir := filepath.Join("testdata", "artifacts")
	t.Run("obs", func(t *testing.T) {
		arts, err := RunObsDemo(obsScale)
		if err != nil {
			t.Fatal(err)
		}
		checkArtifactManifest(t, filepath.Join(dir, "obs.sha256"), arts)
	})
	t.Run("prof", func(t *testing.T) {
		if testing.Short() {
			t.Skip("runs the 12-cell profiled grid")
		}
		d, err := RunProfDemo(profScale)
		if err != nil {
			t.Fatal(err)
		}
		checkArtifactManifest(t, filepath.Join(dir, "prof.sha256"), d.Artifacts)
	})
}

// checkArtifactManifest compares the artifacts' names, order and digests
// with the sha256sum-format manifest at path (or rewrites it under
// -update-golden).
func checkArtifactManifest(t *testing.T, path string, arts []Artifact) {
	t.Helper()
	var got strings.Builder
	for _, a := range arts {
		fmt.Fprintf(&got, "%x  %s\n", sha256.Sum256(a.Data), a.Name)
	}
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing manifest (run with -update-golden): %v", err)
	}
	if got.String() == string(want) {
		return
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for _, l := range wantLines {
		if l != "" && !slices.Contains(gotLines, l) {
			t.Errorf("pinned, no longer produced: %s", l)
		}
	}
	for _, l := range gotLines {
		if l != "" && !slices.Contains(wantLines, l) {
			t.Errorf("produced, not pinned: %s", l)
		}
	}
	t.Errorf("%s differs from the produced artifacts (names, bytes or order)", path)
}
