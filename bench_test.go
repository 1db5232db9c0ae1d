package daredevil

// Benchmark harness: one sub-benchmark per registered experiment (run with
// `go test -bench=. -benchmem`), plus ablation benches for the design
// choices DESIGN.md calls out. Each iteration regenerates the experiment at
// a reduced scale; per-op time is therefore "virtual experiment per real
// second". The ablation benches report their headline numbers as custom
// metrics.

import (
	"testing"

	"daredevil/internal/core"
	"daredevil/internal/harness"
	"daredevil/internal/sim"
	"daredevil/internal/stackbase"
	"daredevil/internal/workload"
)

// benchScale keeps benchmark iterations cheap while preserving queueing
// behavior.
var benchScale = harness.Scale{Warmup: 20 * sim.Millisecond, Measure: 80 * sim.Millisecond}

// BenchmarkExperiments regenerates every registered paper table, figure,
// and extension experiment at bench scale, one sub-benchmark each.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range harness.Experiments {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if t := e.Run(benchScale); len(t.Rows) == 0 {
					b.Fatalf("%s produced no rows", e.Name)
				}
			}
		})
	}
}

// --- Ablation benches (DESIGN.md "design choices") ---

// BenchmarkAblationAlpha sweeps the exponential-smoothing decay ratio.
func BenchmarkAblationAlpha(b *testing.B) {
	for _, alpha := range []float64{0.6, 0.8, 0.95} {
		b.Run(alphaName(alpha), func(b *testing.B) {
			var avg sim.Duration
			for i := 0; i < b.N; i++ {
				avg = runDareVariant(func(cfg *core.Config) { cfg.Alpha = alpha })
			}
			b.ReportMetric(avg.Milliseconds(), "l-avg-ms")
		})
	}
}

func alphaName(a float64) string {
	switch a {
	case 0.6:
		return "alpha=0.6"
	case 0.8:
		return "alpha=0.8"
	default:
		return "alpha=0.95"
	}
}

// BenchmarkAblationMRU compares the MRU update batching against per-query
// heap refreshes (MRU=1 forces a resort on every query).
func BenchmarkAblationMRU(b *testing.B) {
	for _, mru := range []int{1, 64, 1024} {
		mru := mru
		b.Run(mruName(mru), func(b *testing.B) {
			var avg sim.Duration
			for i := 0; i < b.N; i++ {
				avg = runDareVariant(func(cfg *core.Config) { cfg.MRU = mru })
			}
			b.ReportMetric(avg.Milliseconds(), "l-avg-ms")
		})
	}
}

func mruName(m int) string {
	switch m {
	case 1:
		return "mru=1"
	case 64:
		return "mru=64"
	default:
		return "mru=depth"
	}
}

// runDareVariant measures L-tenant average latency under 4L+16T with a
// tweaked Daredevil configuration.
func runDareVariant(tweak func(*core.Config)) sim.Duration {
	env := harness.NewEnv(harness.SVM(4), harness.Vanilla) // device/pool only
	cfg := core.DefaultConfig()
	tweak(&cfg)
	stack := core.New(stackbase.Env{Eng: env.Eng, Pool: env.Pool, Dev: env.Dev}, cfg)
	env.Stack = stack
	mix := harness.NewMix(env)
	mix.AddL(4, 0)
	mix.AddT(16, 0)
	// Outlier traffic exercises the request-specific scheduling context,
	// where alpha and the MRU policy actually matter.
	for _, j := range mix.TJobs {
		j.Cfg.OutlierEvery = 16
	}
	mix.StartAll()
	workload.StartIoniceUpdater(env.Eng, env.Stack, mix.Tenants(),
		sim.Millisecond, sim.Time(benchScale.Warmup+benchScale.Measure))
	env.Eng.RunUntil(sim.Time(benchScale.Warmup))
	mix.ResetStats()
	env.Eng.RunUntil(sim.Time(benchScale.Warmup + benchScale.Measure))
	return mix.Collect(benchScale.Measure).L.Mean
}

// BenchmarkAblationStaticSkew contrasts static partitioning against
// Daredevil's flexible routing under skewed per-core load: every tenant
// pinned to core 0, so static bindings funnel all I/O into one NQ pair.
func BenchmarkAblationStaticSkew(b *testing.B) {
	run := func(kind harness.StackKind) sim.Duration {
		env := harness.NewEnv(harness.SVM(4), kind)
		mix := harness.NewMix(env)
		mix.AddL(2, 0)
		mix.AddT(8, 0)
		for _, j := range mix.AllJobs() {
			j.Tenant.Core = 0
			j.Cfg.Core = 0
		}
		mix.StartAll()
		env.Eng.RunUntil(sim.Time(benchScale.Warmup))
		mix.ResetStats()
		env.Eng.RunUntil(sim.Time(benchScale.Warmup + benchScale.Measure))
		return mix.Collect(benchScale.Measure).L.Mean
	}
	for _, kind := range []harness.StackKind{harness.StaticPart, harness.DareFull} {
		kind := kind
		b.Run(string(kind), func(b *testing.B) {
			var avg sim.Duration
			for i := 0; i < b.N; i++ {
				avg = run(kind)
			}
			b.ReportMetric(avg.Milliseconds(), "l-avg-ms")
		})
	}
}

// BenchmarkAblationNSQRatio contrasts 1:1 NSQ:NCQ binding (SV-M) against a
// >5:1 ratio (WS-M shape) at identical core counts.
func BenchmarkAblationNSQRatio(b *testing.B) {
	run := func(m harness.Machine) sim.Duration {
		r := harness.RunMixOnce(m, harness.DareFull, 4, 16, benchScale)
		return r.L.Mean
	}
	oneToOne := harness.SVM(8)
	wide := harness.WSM()
	b.Run("nsq:ncq=1:1", func(b *testing.B) {
		var avg sim.Duration
		for i := 0; i < b.N; i++ {
			avg = run(oneToOne)
		}
		b.ReportMetric(avg.Milliseconds(), "l-avg-ms")
	})
	b.Run("nsq:ncq=5:1", func(b *testing.B) {
		var avg sim.Duration
		for i := 0; i < b.N; i++ {
			avg = run(wide)
		}
		b.ReportMetric(avg.Milliseconds(), "l-avg-ms")
	})
}

// BenchmarkSimulatorThroughput measures raw simulation speed: events per
// second of the full machine under a heavy mixed workload.
func BenchmarkSimulatorThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := harness.NewEnv(harness.SVM(4), harness.DareFull)
		mix := harness.NewMix(env)
		mix.AddL(4, 0)
		mix.AddT(16, 0)
		mix.StartAll()
		env.Eng.RunUntil(sim.Time(100 * sim.Millisecond))
		b.ReportMetric(float64(env.Eng.Executed), "events")
	}
}

// BenchmarkObsOffDeviceHotPath pins the cost of the observability hooks
// when observability is off — the common case for every experiment cell.
// EnableObs is never called, so every span stamp, flight-ring record, and
// tracer call must stay on its nil-check path; benchguard guards this
// benchmark's allocs/op so a hook that starts allocating (or forces an
// interface boxing) on the disabled path fails CI.
func BenchmarkObsOffDeviceHotPath(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := harness.NewEnv(harness.SVM(2), harness.DareFull)
		mix := harness.NewMix(env)
		mix.AddL(2, 0)
		mix.AddT(2, 0)
		mix.StartAll()
		env.Eng.RunUntil(sim.Time(20 * sim.Millisecond))
	}
}

// BenchmarkProfOffDeviceHotPath pins the cost of the profiler seam when
// profiling is off: the observer is attached (so span plumbing, the
// GC-stall sampling sites, and Span.End's sink dispatch are all reachable)
// but no tracer or profile sink is armed, so StartSpan returns nil and
// every stamp must stay on its nil-check path. The environment is built
// once and the engine advanced per iteration, so the steady state is
// allocation-free — benchguard gates this at exactly 0 allocs/op.
func BenchmarkProfOffDeviceHotPath(b *testing.B) {
	env := harness.NewEnv(harness.SVM(2), harness.DareFull)
	env.EnableObs(0, 0)
	mix := harness.NewMix(env)
	mix.AddL(2, 0)
	mix.AddT(2, 0)
	mix.StartAll()
	end := sim.Time(20 * sim.Millisecond)
	env.Eng.RunUntil(end)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		end += sim.Time(sim.Millisecond)
		env.Eng.RunUntil(end)
	}
}
