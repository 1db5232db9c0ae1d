package harness

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Every experiment is a grid of independent (stack × config) cells, and
// each cell builds its own sim.Engine, cpus.Pool, nvme.Device, and random
// streams in NewEnv (an aged FTL is copied from a read-only image) — there
// is no mutable state shared between cells. That makes experiment fan-out
// embarrassingly parallel: the Runner executes cells on a worker pool, and
// because every cell writes its typed result into a pre-assigned grid
// slot, parallel output is assembled in deterministic grid order and is
// bit-identical to a serial run.

// Runner executes independent simulation cells on a pool of workers.
type Runner struct {
	workers int
}

// NewRunner returns a runner with the given worker count; workers <= 0
// selects GOMAXPROCS.
func NewRunner(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{workers: workers}
}

// Workers reports the pool size.
func (r *Runner) Workers() int { return r.workers }

// Run executes fn(i) for every i in [0, n), fanning out over the worker
// pool, and returns when all cells are done. fn must confine its writes to
// cell-local state (typically slot i of a caller-owned slice). A panicking
// cell is re-panicked on the caller's goroutine after the pool drains, so
// modeling bugs surface exactly as they do serially.
func (r *Runner) Run(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := r.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicked any
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				func() {
					defer func() {
						if p := recover(); p != nil {
							panicOnce.Do(func() { panicked = p })
						}
					}()
					fn(int(i))
				}()
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// defaultWorkers is the fan-out used by the package-level experiment
// entry points (RunFig6, RunExtGC, ...). It defaults to GOMAXPROCS and is
// overridden by ddbench's -j flag.
var defaultWorkers atomic.Int64

func init() { defaultWorkers.Store(int64(runtime.GOMAXPROCS(0))) }

// SetParallelism sets the worker count used by the experiment entry
// points. n must be at least 1 (CLIs validate user input before calling).
func SetParallelism(n int) {
	if n < 1 {
		panic(fmt.Sprintf("harness: parallelism must be >= 1, got %d", n))
	}
	defaultWorkers.Store(int64(n))
}

// Parallelism reports the current experiment fan-out.
func Parallelism() int { return int(defaultWorkers.Load()) }

// RunCells evaluates cell(i) for i in [0, n) on the default runner and
// returns the results in index order — the deterministic-assembly helper
// every experiment grid goes through.
func RunCells[T any](n int, cell func(i int) T) []T {
	out := make([]T, n)
	NewRunner(Parallelism()).Run(n, func(i int) { out[i] = cell(i) })
	return out
}
