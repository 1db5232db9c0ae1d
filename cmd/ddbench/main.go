// Command ddbench regenerates the paper's tables and figures on the
// simulated testbed. Each experiment prints the rows/series the paper
// reports.
//
// Usage:
//
//	ddbench [-quick] [-j N] [-warmup DUR] [-measure DUR] <experiment>...
//	ddbench all
//
// The experiments are the entries of harness.Experiments; ddbench -h lists
// them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"daredevil/internal/harness"
	"daredevil/internal/sim"
	"daredevil/internal/walltime"
)

func main() { os.Exit(realMain()) }

// realMain returns the exit code instead of calling os.Exit so the
// deferred profile writers always flush.
func realMain() int {
	quick := flag.Bool("quick", false, "use the quick scale (shorter windows)")
	warmup := flag.Duration("warmup", 0, "override warmup window (e.g. 200ms)")
	measure := flag.Duration("measure", 0, "override measurement window (e.g. 1s)")
	svgDir := flag.String("svg", "", "also write <experiment>.svg charts into this directory")
	jsonDir := flag.String("json", "", "also write machine-readable <experiment>.json results into this directory")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "run up to N experiment cells in parallel (results are identical to -j 1)")
	obsDir := flag.String("obs", "", "run the instrumented demo cell and write trace.json, trace.txt, metrics.csv, metrics.svg, flight.txt into this directory (no experiment needed)")
	profDir := flag.String("prof", "", "run the profiled comparison grid (every stack x two tenant mixes) and write per-cell and merged layer-latency artifacts into this directory (no experiment needed)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Usage = usage
	flag.Parse()

	if *jobs < 1 {
		fmt.Fprintf(os.Stderr, "ddbench: -j must be at least 1 (got %d)\n\n", *jobs)
		usage()
		return 2
	}
	harness.SetParallelism(*jobs)

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ddbench:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "ddbench:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ddbench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "ddbench:", err)
			}
		}()
	}

	sc := harness.DefaultScale
	if *quick {
		sc = harness.QuickScale
	}
	if *warmup > 0 {
		sc.Warmup = sim.Duration(warmup.Nanoseconds())
	}
	if *measure > 0 {
		sc.Measure = sim.Duration(measure.Nanoseconds())
	}

	if *obsDir != "" {
		if err := runObs(*obsDir, sc); err != nil {
			fmt.Fprintln(os.Stderr, "ddbench:", err)
			return 1
		}
		if flag.NArg() == 0 && *profDir == "" {
			return 0
		}
	}
	if *profDir != "" {
		if err := runProf(*profDir, sc); err != nil {
			fmt.Fprintln(os.Stderr, "ddbench:", err)
			return 1
		}
		if flag.NArg() == 0 {
			return 0
		}
	}

	args := flag.Args()
	if len(args) == 0 {
		usage()
		return 2
	}
	if len(args) == 1 && args[0] == "all" {
		args = harness.ExperimentNames()
	}
	for _, dir := range []string{*svgDir, *jsonDir} {
		if dir == "" {
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "ddbench:", err)
			return 1
		}
	}
	for _, name := range args {
		if err := run(os.Stdout, name, sc, *svgDir, *jsonDir); err != nil {
			fmt.Fprintln(os.Stderr, "ddbench:", err)
			return 1
		}
	}
	return 0
}

// runObs runs the instrumented demo cell (Daredevil under brownout with
// tracing, metrics sampling, and the flight recorder armed) and writes its
// artifacts into dir.
func runObs(dir string, sc harness.Scale) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	arts, err := harness.RunObsDemo(sc)
	if err != nil {
		return err
	}
	return writeArtifacts(dir, arts)
}

// writeArtifacts writes each artifact into dir under its name and reports
// its path.
func writeArtifacts(dir string, arts []harness.Artifact) error {
	for _, a := range arts {
		path := filepath.Join(dir, a.Name)
		if err := os.WriteFile(path, a.Data, 0o644); err != nil {
			return err
		}
		fmt.Printf("[wrote %s]\n", path)
	}
	return nil
}

// runProf runs the profiled comparison grid and writes the merged fleet
// artifacts (profile.txt table, profile.folded flame-graph stacks,
// profile.svg stacked bars, profile.json mergeable digests) plus the same
// four per cell, named after the cell, into dir. Output bytes are
// identical at any -j width.
func runProf(dir string, sc harness.Scale) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sw := walltime.Start()
	d, err := harness.RunProfDemo(sc)
	if err != nil {
		return err
	}
	if err := writeArtifacts(dir, d.Artifacts); err != nil {
		return err
	}
	fmt.Printf("[prof grid: %d cells, %d requests profiled, done in %v]\n",
		d.Cells, d.Merged.Requests(), sw.Elapsed().Round(time.Millisecond))
	return nil
}

// run executes one experiment, prints its table, and, when the directories
// are set, writes <name>.svg (charted figures only) and <name>.json there.
func run(w io.Writer, name string, sc harness.Scale, svgDir, jsonDir string) error {
	e, err := harness.FindExperiment(name)
	if err != nil {
		return err
	}
	sw := walltime.Start()
	t := e.Table(sc)
	t.WriteText(w)
	fmt.Fprintf(w, "[%s done in %v]\n", name, sw.Elapsed().Round(time.Millisecond))
	if svgDir != "" && e.Chart != nil {
		path := filepath.Join(svgDir, name+".svg")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := e.Chart(t).WriteSVG(f); err != nil {
			f.Close()
			return fmt.Errorf("rendering %s: %w", path, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "[wrote %s]\n", path)
	}
	if jsonDir != "" {
		path := filepath.Join(jsonDir, name+".json")
		data, err := json.MarshalIndent(t, "", "  ")
		if err != nil {
			return fmt.Errorf("encoding %s: %w", path, err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "[wrote %s]\n", path)
	}
	return nil
}

func usage() {
	fmt.Fprintf(os.Stderr, `ddbench regenerates the Daredevil paper's tables and figures.

usage: ddbench [-quick] [-j N] [-warmup DUR] [-measure DUR] <experiment>...
experiments: %v (or "all")
`, harness.ExperimentNames())
	flag.PrintDefaults()
}
