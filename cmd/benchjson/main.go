// Command benchjson captures the repo's performance baseline in one
// machine-readable file. It runs the event-core microbenchmarks, the
// whole-simulator benchmark and the per-layer microbenchmarks (flash
// programs, NVMe fetch arbitration) through `go test -bench`, times a full
// `ddbench -quick all` sweep serially and in parallel, and writes the
// results as JSON (BENCH_harness.json by default).
//
// The file is the artifact `make bench` and CI publish: it locks in ns/op
// and allocs/op for the allocation-free event core and the wall-clock
// speedup of the experiment fan-out, per machine. When the output file
// already exists, the old contents are kept next to it with a .prev.json
// suffix so a re-baseline commit carries both sides of the comparison.
//
// Usage:
//
//	benchjson [-out BENCH_harness.json] [-smoke]
//
// -smoke trims the run for CI: short benchtime and the table1 experiment
// instead of the full sweep.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"daredevil/internal/walltime"
)

// Benchmark is one parsed `go test -bench` result line.
type Benchmark struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Metrics holds the custom per-unit figures a benchmark reports with
	// b.ReportMetric (ns/page, ns/fetch, ...), keyed by unit.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// DDBench is the wall-clock comparison of the experiment harness run
// serially and with the worker pool.
type DDBench struct {
	Experiments     string  `json:"experiments"`
	Jobs            int     `json:"jobs"`
	SerialSeconds   float64 `json:"serial_seconds"`
	ParallelSeconds float64 `json:"parallel_seconds"`
	Speedup         float64 `json:"speedup"`
}

// Baseline is the file layout.
type Baseline struct {
	GeneratedUnix int64       `json:"generated_unix"`
	GoVersion     string      `json:"go_version"`
	GOOS          string      `json:"goos"`
	GOARCH        string      `json:"goarch"`
	NumCPU        int         `json:"num_cpu"`
	Smoke         bool        `json:"smoke,omitempty"`
	Benchmarks    []Benchmark `json:"benchmarks"`
	DDBench       DDBench     `json:"ddbench"`
}

func main() { os.Exit(realMain()) }

func realMain() int {
	out := flag.String("out", "BENCH_harness.json", "output file")
	smoke := flag.Bool("smoke", false, "CI mode: short benchtime, table1 instead of the full sweep")
	flag.Parse()

	benchtime := ""
	experiments := []string{"all"}
	if *smoke {
		benchtime = "1000x"
		// table1 is a static table; ext-gc is the smallest experiment that
		// actually exercises the fan-out, so its timing is meaningful.
		experiments = []string{"ext-gc"}
	}

	var benches []Benchmark
	runs := [][]string{
		{"-bench", "BenchmarkEngine", "./internal/sim"},
		{"-bench", "BenchmarkSimulatorThroughput", "."},
		{"-bench", "BenchmarkObsOff", "."},
		{"-bench", "BenchmarkProfOff", "."},
		// Per-layer microbenchmarks: reported, not guarded.
		{"-bench", "BenchmarkFlashProgram128K", "./internal/flash"},
		{"-bench", "BenchmarkNVMeFetchRR", "./internal/nvme"},
	}
	for _, r := range runs {
		bs, err := runGoBench(r[1], r[2], benchtime)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			return 1
		}
		benches = append(benches, bs...)
	}

	dd, err := timeDDBench(experiments)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 1
	}

	b := Baseline{
		GeneratedUnix: walltime.Unix(),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		NumCPU:        runtime.NumCPU(),
		Smoke:         *smoke,
		Benchmarks:    benches,
		DDBench:       dd,
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 1
	}
	// Snapshot the baseline being replaced as <out-minus-.json>.prev.json:
	// a deliberate re-baseline then carries its before/after pair in one
	// commit, and benchguard's limits stay auditable against the numbers
	// they superseded.
	if prior, err := os.ReadFile(*out); err == nil {
		prev := strings.TrimSuffix(*out, ".json") + ".prev.json"
		if err := os.WriteFile(prev, prior, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: keeping previous baseline:", err)
			return 1
		}
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 1
	}
	fmt.Printf("wrote %s (%d benchmarks, ddbench %s: %.2fs serial / %.2fs -j %d, %.2fx)\n",
		*out, len(benches), dd.Experiments, dd.SerialSeconds, dd.ParallelSeconds, dd.Jobs, dd.Speedup)
	return 0
}

// runGoBench executes one `go test -bench` invocation and parses its
// Benchmark lines.
func runGoBench(pattern, pkg, benchtime string) ([]Benchmark, error) {
	args := []string{"test", "-run", "^$", "-bench", pattern, "-benchmem", pkg}
	if benchtime != "" {
		args = append(args, "-benchtime", benchtime)
	}
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	outp, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %w", strings.Join(args, " "), err)
	}
	return parseBenchLines(string(outp))
}

// parseBenchLines extracts Benchmark entries from `go test -bench` output.
// A line looks like:
//
//	BenchmarkName-8   1234   56.7 ns/op   8 B/op   1 allocs/op   9204 events
//
// The ns/op, B/op and allocs/op pairs fill their fields; any other
// value/unit pair lands in Metrics.
func parseBenchLines(out string) ([]Benchmark, error) {
	var res []Benchmark
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 {
			continue
		}
		iters, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue
		}
		b := Benchmark{Name: strings.TrimSuffix(f[0], fmt.Sprintf("-%d", runtime.GOMAXPROCS(0))), Iterations: iters}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			switch f[i+1] {
			case "ns/op":
				b.NsPerOp = v
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			default:
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[f[i+1]] = v
			}
		}
		res = append(res, b)
	}
	if len(res) == 0 {
		return nil, fmt.Errorf("no Benchmark lines in output:\n%s", out)
	}
	return res, nil
}

// timeDDBench builds ddbench once, then times the experiment list with
// -j 1 and with the machine's full worker count.
func timeDDBench(experiments []string) (DDBench, error) {
	tmp, err := os.MkdirTemp("", "benchjson")
	if err != nil {
		return DDBench{}, err
	}
	defer os.RemoveAll(tmp)
	bin := filepath.Join(tmp, "ddbench")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/ddbench").CombinedOutput(); err != nil {
		return DDBench{}, fmt.Errorf("building ddbench: %v\n%s", err, out)
	}

	jobs := runtime.GOMAXPROCS(0)
	serial, err := timeRun(bin, 1, experiments)
	if err != nil {
		return DDBench{}, err
	}
	parallel, err := timeRun(bin, jobs, experiments)
	if err != nil {
		return DDBench{}, err
	}
	d := DDBench{
		Experiments:     "quick " + strings.Join(experiments, " "),
		Jobs:            jobs,
		SerialSeconds:   serial.Seconds(),
		ParallelSeconds: parallel.Seconds(),
	}
	if parallel > 0 {
		d.Speedup = serial.Seconds() / parallel.Seconds()
	}
	return d, nil
}

func timeRun(bin string, jobs int, experiments []string) (time.Duration, error) {
	args := append([]string{"-quick", "-j", strconv.Itoa(jobs)}, experiments...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = nil // discard: only wall-clock matters here
	cmd.Stderr = os.Stderr
	sw := walltime.Start()
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("ddbench -j %d: %w", jobs, err)
	}
	return sw.Elapsed(), nil
}
