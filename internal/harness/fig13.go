package harness

import (
	"daredevil/internal/plot"
	"daredevil/internal/sim"
	"daredevil/internal/stats"
	"daredevil/internal/workload"
)

// fig13Machine confines the experiment to 4 cores and 16 NQs as §7.5 does.
func fig13Machine() Machine {
	m := SVM(4)
	m.NVMe.NumNSQ = 16
	m.NVMe.NumNCQ = 16
	return m
}

// RunFig13 reproduces Figure 13: overheads of cross-core NQ accesses under
// TL-tenants (throughput-shaped tenants given L priority so they share the
// L-tenants' NQs). It measures both directions: fixed 12 TL-tenants with
// varying L-tenants, and fixed 12 L-tenants with varying TL-tenants.
// Daredevil runs are interleaved by randomly migrating tenants across cores.
func RunFig13(sc Scale) Table {
	type spec struct {
		kind    StackKind
		nL, nTL int
		fixed   string
	}
	counts := []int{4, 8, 12, 16}
	var specs []spec
	for _, kind := range []StackKind{Vanilla, DareFull} {
		for _, n := range counts {
			specs = append(specs, spec{kind, n, 12, "TL"})
		}
		for _, n := range counts {
			specs = append(specs, spec{kind, 12, n, "L"})
		}
	}
	t := Table{Title: "Figure 13: cross-core NQ access overheads (TL-tenants share L NQs)", Columns: []Column{
		{"stack", FmtText}, {"fixed", FmtText}, {"L", FmtInt}, {"TL", FmtInt}, {"avg (ms)", FmtMs},
		{"spread (ms)", FmtMs}, {"sub-wait (µs)", FmtUs}, {"comp-delay (µs)", FmtUs}, {"cross-core", FmtPct},
	}}
	for _, row := range RunCells(len(specs), func(i int) []any {
		s := specs[i]
		return runFig13Cell(s.kind, s.nL, s.nTL, s.fixed, sc)
	}) {
		t.Add(row...)
	}
	return t
}

// runFig13Cell returns one row of Figure 13: the L-tenant average, the
// p90-p50 spread (a standard-deviation proxy), the mean submission-side NSQ
// lock wait and CQE-post-to-delivery time per L-request, and the fraction
// of L completions delivered cross-core. Fixed says which count was held
// at 12: "TL" (varying L) or "L" (varying TL).
func runFig13Cell(kind StackKind, nL, nTL int, fixed string, sc Scale) []any {
	env := NewEnv(fig13Machine(), kind)
	mix := NewMix(env)
	mix.AddL(nL, 0)
	mix.AddTL(nTL, 0)
	for _, j := range mix.LJobs {
		j.EnableComponents()
	}
	// TL-tenants start first so Daredevil's NQ scheduling sees their load
	// when assigning default NSQs to the L-tenants joining afterwards.
	for _, j := range mix.TJobs {
		j.Start(env.Eng, env.Pool, env.Stack)
	}
	lJobs := mix.LJobs
	env.Eng.At(sim.Time(sc.Warmup/2), func() {
		for _, j := range lJobs {
			j.Start(env.Eng, env.Pool, env.Stack)
		}
	})
	if kind == DareFull {
		// Interleave NQ accesses: move tenants across cores randomly so
		// each NQ is accessed by multiple cores (§7.5).
		workload.StartMigrator(env.Eng, env.Stack, mix.Tenants(), env.Pool.N(),
			2*sim.Millisecond, sim.Time(sc.Warmup+sc.Measure), 99)
	}
	env.Eng.RunUntil(sim.Time(sc.Warmup))
	mix.ResetStats()
	env.Eng.RunUntil(sim.Time(sc.Warmup + sc.Measure))

	var lat, sub, comp stats.Histogram
	var cross, total uint64
	for _, j := range mix.LJobs {
		lat.Merge(&j.Lat)
		sub.Merge(j.SubWait)
		comp.Merge(j.CompDelay)
		cross += j.CrossCore
		total += j.Done.Ops
	}
	frac := 0.0
	if total > 0 {
		frac = float64(cross) / float64(total)
	}
	return []any{kind, fixed, nL, nTL, lat.Mean(), lat.Quantile(0.90) - lat.Quantile(0.50),
		sub.Mean(), comp.Mean(), frac}
}

// fig13Chart draws average latency vs TL count (fixed L=12).
func fig13Chart(t Table) *plot.Chart {
	c := &plot.Chart{
		Title:  "Figure 13: L-tenant average latency vs TL-tenants (12 L-tenants)",
		XLabel: "TL-tenants", YLabel: "avg latency (ms)",
		Kind: plot.Lines,
	}
	for _, kind := range []StackKind{Vanilla, DareFull} {
		var x, y []float64
		for _, n := range []int{4, 8, 12, 16} {
			if r, ok := t.Row(kind, "L", 12, n); ok {
				x = append(x, float64(n))
				y = append(y, r.Dur("avg (ms)").Milliseconds())
			}
		}
		c.Series = append(c.Series, plot.Series{Name: string(kind), X: x, Y: y})
	}
	return c
}
