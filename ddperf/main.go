// Command ddperf is the end-to-end benchmark of the daredevil simulator
// and its ddserve daemon. One invocation runs one seeded workload for a
// fixed host time through the public APIs only — scenario.Parse, Expand and
// CellSpec, harness.BuildCell, Cell.Run, and serve.New(...).Handler() over
// loopback HTTP — checks the outputs, and prints one JSON object as its last
// line of standard output.
//
//	bash ddperf/run.sh --workload mix-steady --seed 1 --seconds 40 --trace 0
//
// With --trace 0 the object carries the end-to-end metrics, measured with
// tracing off. With --trace 1 the same workload alternates untraced blocks
// with traced ones (spans around every public call plus a runtime/pprof CPU
// profile, folded by innermost package with go tool pprof), and the object
// carries the per-layer metrics. The full report, stamped with the machine,
// is written next to the binary as result-<workload>-seed<N>-trace<T>.json.
//
// Workloads (see BENCHMARK.json for the one-line reasons):
//
//   - mix-steady: the §7.1 interference mix (4 L-tenants at 4 KB qd1 against
//     16 T-tenants at 128 KB qd32) on all six stacks, on SV-M (4 cores,
//     64 NSQs) and WS-M (8 cores, 128 NSQs / 24 NCQs), plain flash model,
//     150 + 600 ms virtual windows. Exercises the simulator hot path.
//   - aged-gc: an aged FTL device (precondition 100%, scramble 30%, OP 7%)
//     with 4 L readers against 4 random-overwrite T-tenants at qd4 with
//     trimEvery 8, on vanilla, blk-switch and daredevil, 100 + 400 ms
//     virtual. Exercises FTL preconditioning in BuildCell and GC in Run.
//   - serve-zipf: an in-process ddserve with the default config (request
//     logging on, to a discard sink) and a closed loop of 2 clients. Each
//     request is POST /v1/sweeps?wait=1 then GET /v1/jobs/{id}/result for a
//     single-cell scenario drawn with Zipf popularity (exponent 0.75, from
//     published web-cache request measurements; see serve.go) from a
//     catalog of 512 distinct scenarios, twice the 256-entry result cache.
//
// The seed only perturbs the generated scenarios (tenant random streams,
// catalog contents and request order); the program sees nothing but the
// generated scenario JSON. Seed 777 is held out: claims are re-checked on it
// and it is not used while a change is being written.
//
// Accuracy: the model is checked against the paper by shape only. See the
// accuracy constant.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// accuracy is printed with every result: the repository holds claims about
// the paper's figures, not a table of reference numbers, so the simulated
// statistics carry no error figure.
const accuracy = "model checked against the paper by shape only " +
	"(daredevil L p99 below vanilla on every mix-steady testbed); " +
	"EXPERIMENTS.md holds claims, not a reference table, so no error figure is given"

// heldOutSeed is never used while tuning a change; claims are re-checked
// on it.
const heldOutSeed = 777

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	commit   string
}

// workload runs one traffic mix. It returns the metrics of the measured
// phase (end-to-end with trace off, per-layer with trace on) through b.
type workload struct {
	name string
	run  func(b *bench) error
}

var workloads = []workload{
	{"mix-steady", runMixSteady},
	{"aged-gc", runAgedGC},
	{"serve-zipf", runServeZipf},
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "ddperf:", err)
		os.Exit(2)
	}
	res, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ddperf:", err)
		os.Exit(1)
	}
	fmt.Println(res.reportLine())
	fmt.Println(res.outcomeLine())
}

func parseFlags(args []string) (config, error) {
	var cfg config
	var trace int
	fs := flag.NewFlagSet("ddperf", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload name: "+workloadNames())
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 40, "host seconds the measured phase runs")
	fs.IntVar(&trace, "trace", 0, "1 runs untraced then traced and reports per-layer metrics")
	fs.StringVar(&cfg.out, "out", ".bench_build/ddperf", "directory for the result file and span dump")
	fs.StringVar(&cfg.commit, "commit", "unknown", "commit the program was built from, for the machine stamp")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1, not %d", trace)
	}
	cfg.trace = trace == 1
	if cfg.seconds <= 0 || cfg.seconds > 120 {
		return cfg, fmt.Errorf("--seconds must be in (0, 120], not %g", cfg.seconds)
	}
	if _, ok := lookup(cfg.workload); !ok {
		return cfg, fmt.Errorf("unknown --workload %q (want %s)", cfg.workload, workloadNames())
	}
	return cfg, nil
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// execute runs the configured workload, writes the result file, and
// returns the result.
func execute(cfg config) (*result, error) {
	w, _ := lookup(cfg.workload)
	b := &bench{cfg: cfg, res: &result{
		Workload:    cfg.workload,
		Seed:        cfg.seed,
		Seconds:     cfg.seconds,
		Trace:       cfg.trace,
		HeldOutSeed: heldOutSeed,
		Accuracy:    accuracy,
		Machine:     stampMachine(cfg.commit),
		Samples:     map[string]int{},
	}}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	steal0, total0 := cpuStealTicks()
	if err := w.run(b); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if steal1, total1 := cpuStealTicks(); total1 > total0 {
		b.res.Machine.StealFrac = float64(steal1-steal0) / float64(total1-total0)
	}
	b.res.MaxRSSMB = maxRSSMB()
	if err := b.res.finish(); err != nil {
		return nil, err
	}
	name := fmt.Sprintf("result-%s-seed%d-trace%d.json", cfg.workload, cfg.seed, btoi(cfg.trace))
	data, err := json.MarshalIndent(b.res, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(cfg.out, name), append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	if b.spans != nil {
		if err := b.spans.write(filepath.Join(cfg.out,
			fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))); err != nil {
			return nil, err
		}
	}
	return b.res, nil
}

func btoi(v bool) int {
	if v {
		return 1
	}
	return 0
}

// machine stamps a result with the box it was measured on. A number from
// another machine is context, not a baseline.
type machine struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	// StealFrac is the share of the machine's CPU time the hypervisor gave
	// to other guests during the run; a high value explains slow timings
	// on a shared box.
	StealFrac float64 `json:"cpu_steal_frac"`
}

func stampMachine(commit string) machine {
	return machine{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     commit,
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuStealTicks reads the machine-wide steal and total CPU ticks from the
// first line of /proc/stat; both are 0 where it cannot be read.
func cpuStealTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; the guest columns
	// after them are already counted in user and nice.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// metric is one printed number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one invocation measured and checked.
type result struct {
	Workload    string  `json:"workload"`
	Seed        uint64  `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Trace       bool    `json:"trace"`
	HeldOutSeed uint64  `json:"held_out_seed"`
	Accuracy    string  `json:"accuracy"`
	Machine     machine `json:"machine"`
	// Digest is the SHA-256 over every simulated result the workload's
	// reference inputs produced; equal seeds must give equal digests, and
	// a speed-only change must leave it unchanged.
	Digest     string            `json:"digest"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	FailedFrac float64           `json:"failed_frac"`
	Failures   []string          `json:"failures,omitempty"`
	Samples    map[string]int    `json:"samples"`
	MaxRSSMB   float64           `json:"max_rss_mb"`
	Metrics    map[string]metric `json:"metrics"`

	values map[string]float64
}

// finish turns the measured values into the printed metric set: every
// end-to-end metric with trace off, every per-layer metric with trace on.
func (r *result) finish() error {
	if r.Attempted == 0 {
		return errors.New("no operation was attempted")
	}
	r.FailedFrac = float64(r.Failed) / float64(r.Attempted)
	defs := endToEnd
	if r.Trace {
		defs = perLayer
		r.values["runtime.max_rss_mb"] = r.MaxRSSMB
	}
	r.Metrics = make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !r.Trace {
			return fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		r.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return nil
}

// fail records a failed operation and keeps the first few reasons.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// op counts one attempted operation, failed when err is non-nil.
func (r *result) op(err error) {
	r.Attempted++
	if err != nil {
		r.fail("%v", err)
	}
}

// reportLine is the human-facing summary printed before the result line.
func (r *result) reportLine() string {
	rep := struct {
		Workload    string         `json:"workload"`
		Seed        uint64         `json:"seed"`
		HeldOutSeed uint64         `json:"held_out_seed"`
		Digest      string         `json:"digest"`
		FailedFrac  float64        `json:"failed_frac"`
		Failures    []string       `json:"failures,omitempty"`
		Samples     map[string]int `json:"samples"`
		Machine     machine        `json:"machine"`
		Accuracy    string         `json:"accuracy"`
	}{r.Workload, r.Seed, r.HeldOutSeed, r.Digest, r.FailedFrac, r.Failures, r.Samples, r.Machine, r.Accuracy}
	data, _ := json.Marshal(rep)
	return "report " + string(data)
}

// outcomeLine is the last line of standard output, the contract with
// whatever collects the numbers.
func (r *result) outcomeLine() string {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, r.Metrics}
	data, _ := json.Marshal(out)
	return string(data)
}
