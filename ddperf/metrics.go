package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"syscall"

	"daredevil/internal/harness"
)

// def names one printed metric and its unit.
type def struct{ name, unit string }

// endToEnd are the numbers a user of the simulator or the daemon waits on,
// printed with --trace 0. Every workload reports every one of them. A
// "request" is one grid cell (CellSpec, BuildCell and Run) on the grid
// workloads and one POST plus GET on serve-zipf; a "pass" is one run of the
// whole grid, or 1000 consecutive requests. Each timing is computed per
// pass and reported as the median over the run's passes, so a slow stretch
// of a shared machine moves few of them. Peak resident memory depends on
// when the collector runs relative to the allocator, too much for a bound;
// it is reported per layer as runtime.max_rss_mb, and alloc_mb carries
// memory here.
var endToEnd = []def{
	{"wall_s", "s"},               // host seconds per pass
	{"setup_s", "s"},              // host seconds before simulation can start: per pass (grids), per daemon start (serve)
	{"sim_ms_per_host_s", "ms/s"}, // virtual ms simulated per host second of Run (grids) or of fresh requests (serve)
	{"req_p50_ms", "ms"},          // the pass's median request latency
	{"req_p99_ms", "ms"},          // the pass's 99th-percentile request latency (its slowest cell on the grids)
	{"alloc_mb", "MB"},            // Go heap bytes allocated per pass
}

// layerNames are the simulator's layers, named after its modules, that
// host CPU samples are folded into; "other" takes the rest (the benchmark
// itself, the standard library outside net/http and encoding/json, and the
// fault, virtio, walltime and plot packages).
var layerNames = []string{
	"sim", "cpus", "stacks", "nvme", "flash", "ftl", "workload", "stats",
	"prof", "harness", "scenario", "serve", "runtime", "other",
}

// perLayer are printed with --trace 1. Counts are per pass; a layer a
// workload does not reach reads 0.
var perLayer = func() []def {
	d := []def{
		// Benchmark-side spans around public calls: median self time.
		{"scenario.parse_s", "s"},
		{"harness.build_s", "s"},
		{"harness.run_s", "s"},
		{"serve.post_ms", "ms"},
		{"serve.get_ms", "ms"},
		// Counts read from public fields.
		{"sim.events", "count/pass"},
		{"sim.host_ns_per_event", "ns"},
		{"nvme.fetched", "count/pass"},
		{"nvme.irqs", "count/pass"},
		{"flash.pages_read", "count/pass"},
		{"flash.pages_written", "count/pass"},
		{"flash.erases", "count/pass"},
		{"ftl.gc_runs", "count/pass"},
		{"ftl.gc_pages_moved", "count/pass"},
		{"ftl.waf", "ratio"},
		{"ftl.foreground_gcs", "count/pass"},
		{"workload.ops", "count/pass"},
		{"cpus.switches", "count/pass"},
		{"serve.cache_hit_ratio", "ratio"},
		{"serve.cells_run", "count/pass"},
		{"serve.fresh_p50_ms", "ms"},
		{"serve.fresh_p99_ms", "ms"},
		{"serve.hit_p50_ms", "ms"},
		{"serve.hit_p99_ms", "ms"},
		{"serve.fresh_samples", "count"},
		{"serve.hit_samples", "count"},
		{"runtime.gc_cpu_frac", "ratio"},
		{"runtime.max_rss_mb", "MB"},
	}
	// Modelled-design statistics, in virtual time; they repeat exactly.
	for _, k := range harness.AllKinds {
		d = append(d,
			def{"model.l_p99_us." + string(k), "us"},
			def{"model.l_p999_us." + string(k), "us"},
			def{"model.t_mbps." + string(k), "MB/s"})
	}
	for _, l := range layerNames {
		d = append(d, def{l + ".self_frac", "ratio"})
	}
	return append(d,
		def{"runtime.malloc_self_frac", "ratio"},
		def{"serve.io_self_frac", "ratio"},
		def{"trace.overhead_frac", "ratio"})
}()

// bench carries one invocation through its workload.
type bench struct {
	cfg   config
	res   *result
	spans *tracer // the traced phase's spans, written when the run ends
}

// phase holds the values one timed phase measured, by metric name.
type phase map[string]float64

// traceBlockSeconds is the length of the untraced and traced blocks a
// traced run alternates between: long enough that stopping the CPU profile
// after each traced block (about 0.1 s) is rare, short enough that a shared
// machine's drift reaches both modes alike.
const traceBlockSeconds = 2

// measure runs the workload's timed phase. With tracing off it runs for the
// whole budget and its values become the result. With tracing on it
// alternates untraced blocks with traced ones — each traced block under a
// CPU profile and benchmark-side spans — in the order U T T U U T T U ...,
// so steady drift of the machine cancels. The traced blocks give the
// per-layer values; the median traced wall_s against the median untraced
// one gives the overhead.
func (b *bench) measure(timed func(seconds float64, tr *tracer) (phase, error)) error {
	if !b.cfg.trace {
		p, err := timed(b.cfg.seconds, nil)
		b.res.values = p
		return err
	}
	blocks := 2 * max(1, int(b.cfg.seconds/(2*traceBlockSeconds)))
	seconds := b.cfg.seconds / float64(blocks)
	tr := newTracer()
	var untraced, traced []phase
	var profiles []string
	for i := 0; i < blocks; i++ {
		if i%4 == 0 || i%4 == 3 {
			p, err := timed(seconds, nil)
			if err != nil {
				return err
			}
			untraced = append(untraced, p)
			continue
		}
		path := filepath.Join(b.cfg.out, fmt.Sprintf("cpu-%s-seed%d-%d.pprof", b.cfg.workload, b.cfg.seed, i))
		p, err := profiled(path, func() (phase, error) { return timed(seconds, tr) })
		if err != nil {
			return err
		}
		traced = append(traced, p)
		profiles = append(profiles, path)
	}
	values := medianPhase(traced)
	fracs, err := foldProfiles(profiles)
	if err != nil {
		return fmt.Errorf("folding CPU profiles: %w", err)
	}
	for k, v := range fracs {
		values[k] = v
	}
	for k, v := range tr.timers() {
		values[k] = v
	}
	for _, k := range []string{"serve.fresh_samples", "serve.hit_samples"} {
		values[k] = 0
		for _, p := range traced {
			values[k] += p[k]
		}
	}
	values["trace.overhead_frac"] = values["wall_s"]/medianPhase(untraced)["wall_s"] - 1
	b.spans = tr
	b.res.values = values
	return nil
}

// profiled runs f under a CPU profile written to path.
func profiled(path string, f func() (phase, error)) (phase, error) {
	out, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer out.Close()
	if err := pprof.StartCPUProfile(out); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	p, err := f()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	return p, out.Close()
}

// medianPhase takes each value's median over several blocks.
func medianPhase(blocks []phase) phase {
	all := map[string][]float64{}
	for _, p := range blocks {
		for k, v := range p {
			all[k] = append(all[k], v)
		}
	}
	out := phase{}
	for k, xs := range all {
		out[k] = median(xs)
	}
	return out
}

// sampler reads the runtime counters a phase reports as deltas.
type sampler struct{ s []metrics.Sample }

func newSampler() *sampler {
	return &sampler{s: []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}}
}

// runtimeCounters is a snapshot of the sampled runtime counters.
type runtimeCounters struct {
	allocBytes          uint64
	gcCPU, totCPU, idle float64
}

func (s *sampler) read() runtimeCounters {
	metrics.Read(s.s)
	return runtimeCounters{
		allocBytes: s.s[0].Value.Uint64(),
		gcCPU:      s.s[1].Value.Float64(),
		totCPU:     s.s[2].Value.Float64(),
		idle:       s.s[3].Value.Float64(),
	}
}

// gcFrac is the share of the used CPU time between a and b that the
// garbage collector took.
func gcFrac(a, b runtimeCounters) float64 {
	used := (b.totCPU - b.idle) - (a.totCPU - a.idle)
	if used <= 0 {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / used
}

// maxRSSMB reports the process's peak resident set.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// quantile is the q-quantile of xs by linear interpolation between the
// order statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// digest hashes a sequence of result documents.
func digest(docs [][]byte) string {
	h := sha256.New()
	for _, d := range docs {
		fmt.Fprintf(h, "%d:", len(d))
		h.Write(d)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// passStats collects the per-pass values the end-to-end timings are
// medians of.
type passStats struct {
	wall, setup, simRate, p50, p99, alloc []float64
}

// add records one pass; lat holds its request latencies in ms.
func (s *passStats) add(wall, setup, simRate float64, lat []float64, allocMB float64) {
	s.wall = append(s.wall, wall)
	s.setup = append(s.setup, setup)
	s.simRate = append(s.simRate, simRate)
	s.p50 = append(s.p50, quantile(lat, 0.5))
	s.p99 = append(s.p99, quantile(lat, 0.99))
	s.alloc = append(s.alloc, allocMB)
}

// phase reduces the passes to their medians.
func (s *passStats) phase() phase {
	return phase{
		"wall_s":            median(s.wall),
		"setup_s":           median(s.setup),
		"sim_ms_per_host_s": median(s.simRate),
		"req_p50_ms":        median(s.p50),
		"req_p99_ms":        median(s.p99),
		"alloc_mb":          median(s.alloc),
	}
}
