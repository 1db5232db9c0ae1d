package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"daredevil"
	"daredevil/internal/serve"
)

// TestArtifactsAgreeAcrossConsumers runs the shipped traced and profiled
// scenarios through the three consumers of a cell's artifacts — the facade
// (BuildScenario, Run, Artifacts), ddserve over HTTP (every name the
// result document lists), and ddsim's runConfig (the files it writes) —
// and requires byte-identical artifacts wherever two of them share a name.
func TestArtifactsAgreeAcrossConsumers(t *testing.T) {
	srv := serve.New(serve.Config{GitRev: "test", Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		file    string
		written map[string]string // ddsim output file -> artifact name
	}{
		{"traced.json", map[string]string{"traced.trace.json": "trace.json"}},
		{"profiled.json", map[string]string{"profiled.profile.json": "profile.json"}},
	} {
		t.Run(tc.file, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join("../../examples/scenarios", tc.file))
			if err != nil {
				t.Fatal(err)
			}

			facade := facadeArtifacts(t, src)
			served := servedArtifacts(t, ts.URL, src)
			if len(served) != len(facade) {
				t.Fatalf("ddserve lists %d artifacts, the facade renders %d", len(served), len(facade))
			}
			for i, a := range facade {
				if served[i].Name != a.Name || !bytes.Equal(served[i].Data, a.Data) {
					t.Errorf("artifact %d: ddserve's %s differs from the facade's %s", i, served[i].Name, a.Name)
				}
			}

			dir := t.TempDir()
			path := filepath.Join(dir, tc.file)
			if err := os.WriteFile(path, src, 0o644); err != nil {
				t.Fatal(err)
			}
			stdout := os.Stdout
			if os.Stdout, err = os.OpenFile(os.DevNull, os.O_WRONLY, 0); err != nil {
				os.Stdout = stdout
				t.Fatal(err)
			}
			err = runConfig(path, false, "", 0, 0, "")
			os.Stdout.Close()
			os.Stdout = stdout
			if err != nil {
				t.Fatal(err)
			}
			for file, name := range tc.written {
				data, err := os.ReadFile(filepath.Join(dir, file))
				if err != nil {
					t.Fatal(err)
				}
				if want := artifactNamed(facade, name); want == nil || !bytes.Equal(data, want) {
					t.Errorf("ddsim's %s differs from the %s artifact", file, name)
				}
			}
		})
	}
}

// facadeArtifacts runs a scenario through the public facade.
func facadeArtifacts(t *testing.T, src []byte) []daredevil.Artifact {
	t.Helper()
	sc, err := daredevil.ParseScenario(src)
	if err != nil {
		t.Fatal(err)
	}
	sim, warm, measure, err := daredevil.BuildScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(warm, measure)
	arts, err := sim.Artifacts()
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) == 0 {
		t.Fatal("scenario armed no artifacts")
	}
	return arts
}

// servedArtifacts submits a scenario to ddserve and fetches, in listed
// order, every artifact its result document lists for the one cell.
func servedArtifacts(t *testing.T, base string, src []byte) []daredevil.Artifact {
	t.Helper()
	resp, err := http.Post(base+"/v1/sweeps?wait=1", "application/json", bytes.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	var st struct{ ID, State string }
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || st.State != "done" {
		t.Fatalf("sweep: state %q, err %v", st.State, err)
	}
	var doc struct {
		Cells []struct {
			Artifacts []string `json:"artifacts"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(fetch(t, base+"/v1/jobs/"+st.ID+"/result"), &doc); err != nil || len(doc.Cells) != 1 {
		t.Fatalf("result: %d cells, err %v", len(doc.Cells), err)
	}
	var arts []daredevil.Artifact
	for _, name := range doc.Cells[0].Artifacts {
		arts = append(arts, daredevil.Artifact{Name: name, Data: fetch(t, base+"/v1/jobs/"+st.ID+"/cells/0/"+name)})
	}
	return arts
}

// artifactNamed returns the named artifact's bytes, or nil.
func artifactNamed(arts []daredevil.Artifact, name string) []byte {
	for _, a := range arts {
		if a.Name == name {
			return a.Data
		}
	}
	return nil
}

// fetch GETs url and returns its body, failing on any status but 200.
func fetch(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d, err %v", url, resp.StatusCode, err)
	}
	return data
}
