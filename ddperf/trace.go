package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"
)

// The traced phase records a span around every public call the benchmark
// makes — Parse, Expand, CellSpec, BuildCell and Run on the grids, POST
// and GET on the daemon — from the benchmark's own code; nothing inside the
// program is instrumented. Spans stay in memory and are written when the
// run ends.

// span is one timed public call. Spans of one cell or one request share a
// key; parent links a call to the span that caused it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Key    int    `json:"key"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer collects spans. A nil tracer records nothing, so the untraced
// phase runs the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, key, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Key: key, Start: now})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timerMetrics maps a span name to the per-layer metric reporting its
// median self time, and that metric's scale from nanoseconds.
var timerMetrics = map[string]struct {
	metric string
	scale  float64
}{
	"parse": {"scenario.parse_s", 1e-9},
	"build": {"harness.build_s", 1e-9},
	"run":   {"harness.run_s", 1e-9},
	"post":  {"serve.post_ms", 1e-6},
	"get":   {"serve.get_ms", 1e-6},
}

// timers derives each timed call's median self time: its span's duration
// minus the part its child spans cover.
func (t *tracer) timers() phase {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	selfs := map[string][]float64{}
	for _, s := range t.spans {
		if tm, ok := timerMetrics[s.Name]; ok {
			selfs[tm.metric] = append(selfs[tm.metric], float64(s.End-s.Start-child[s.ID])*tm.scale)
		}
	}
	out := phase{}
	for m, xs := range selfs {
		out[m] = median(xs)
	}
	return out
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerOf maps a Go package path to the simulator layer it belongs to.
func layerOf(pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, "daredevil/internal/"); ok {
		switch rest {
		case "sim", "cpus", "nvme", "flash", "ftl", "workload", "stats", "harness", "scenario", "serve":
			return rest
		case "blkmq", "blkswitch", "staticpart", "core", "kyber", "stackbase", "block":
			return "stacks"
		case "obs", "prof":
			return "prof"
		}
		return "other"
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// isServeIO reports whether a package does the daemon's HTTP and JSON I/O.
func isServeIO(pkg string) bool {
	switch pkg {
	case "net", "net/textproto", "encoding/json", "internal/poll", "syscall":
		return true
	}
	return strings.HasPrefix(pkg, "net/http")
}

// isMalloc reports whether a runtime function is part of the allocator.
func isMalloc(fn string) bool {
	for _, p := range []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice",
		"runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*mheap)", "runtime.nextFree",
		"runtime.(*mspan)", "runtime.heapSetType", "runtime.newarray", "runtime.makemap",
	} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// pkgOf extracts the package path from a symbolized Go function name, such
// as "daredevil/internal/sim.(*Engine).RunUntil" or
// "slices.SortFunc[go.shape.int]".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// foldProfiles folds runtime/pprof CPU profiles with the toolchain's
// pprof, attributing every sample to the package of its innermost frame
// (inlined frames included). It returns each layer's share of the samples
// as "<layer>.self_frac", plus the allocator's share
// (runtime.malloc_self_frac) and the HTTP/JSON share (serve.io_self_frac).
func foldProfiles(paths []string) (phase, error) {
	args := append([]string{"tool", "pprof", "-traces", "-symbolize=none"}, paths...)
	text, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return foldTraces(string(text))
}

// foldTraces reads the output of pprof -traces, in which every distinct
// stack follows a separator line and starts with its sample time and
// innermost function.
func foldTraces(text string) (phase, error) {
	byLayer := map[string]time.Duration{}
	var total, malloc, netIO time.Duration
	lines := strings.Split(text, "\n")
	for i := 0; i+1 < len(lines); i++ {
		if !strings.HasPrefix(lines[i], "-----------+") {
			continue
		}
		f := strings.Fields(lines[i+1])
		if len(f) < 2 {
			continue
		}
		d, err := time.ParseDuration(f[0])
		if err != nil {
			return nil, fmt.Errorf("pprof -traces line %q: %w", lines[i+1], err)
		}
		fn := f[1]
		pkg := pkgOf(fn)
		byLayer[layerOf(pkg)] += d
		total += d
		if isMalloc(fn) {
			malloc += d
		}
		if isServeIO(pkg) {
			netIO += d
		}
	}
	out := phase{}
	if total == 0 {
		return out, nil
	}
	for _, l := range layerNames {
		out[l+".self_frac"] = float64(byLayer[l]) / float64(total)
	}
	out["runtime.malloc_self_frac"] = float64(malloc) / float64(total)
	out["serve.io_self_frac"] = float64(netIO) / float64(total)
	return out, nil
}
