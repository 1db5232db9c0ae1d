package harness

import (
	"daredevil/internal/sim"
	"daredevil/internal/workload"
)

// RunExtWebapp reproduces the §1 motivation as a tracked experiment: an
// interactive web application (5k req/s open-loop 4KB page loads) sharing
// the SSD with a deep-learning trainer that checkpoints 256 MiB of model
// state every 500 ms, on each comparison stack. It reports page-load
// latency and checkpoint duration and count.
func RunExtWebapp(sc Scale) Table {
	t := Table{Title: "Extension (§1): interactive web app + DL checkpointing trainer", Columns: []Column{
		{"stack", FmtText}, {"page avg (ms)", FmtMs}, {"page p99 (ms)", FmtMs}, {"page p99.9 (ms)", FmtMs},
		{"checkpoint avg (ms)", FmtMs}, {"checkpoints", FmtInt},
	}}
	for _, kind := range ComparisonKinds {
		env := NewEnv(SVM(4), kind)

		webCfg := workload.DefaultLTenant("webapp", 0)
		webCfg.Arrival = 200 * sim.Microsecond
		web := workload.NewJob(1, webCfg)
		web.Start(env.Eng, env.Pool, env.Stack)

		ckCfg := workload.DefaultCheckpointConfig("trainer", 0)
		ckCfg.Size = 256 << 20
		ckCfg.QD = 256
		ck := workload.NewCheckpointer(2, ckCfg)
		ck.Start(env.Eng, env.Pool, env.Stack)

		// The scenario needs several checkpoint periods; stretch the
		// window accordingly.
		warm := sc.Warmup
		measure := 4 * sc.Measure
		if measure < 2*sim.Second {
			measure = 2 * sim.Second
		}
		env.Eng.RunUntil(sim.Time(warm))
		web.ResetStats()
		ck.ResetStats()
		env.Eng.RunUntil(sim.Time(warm + measure))

		w := web.Lat.Snapshot()
		t.Add(kind, w.Mean, w.P99, w.P999, ck.Durations.Mean(), ck.Completed)
	}
	return t
}
