package harness

import (
	"strconv"

	"daredevil/internal/plot"
	"daredevil/internal/sim"
)

// NamespaceCounts is the §7.2 sweep.
var NamespaceCounts = []int{4, 8, 12}

// runMultiNS runs one multi-namespace cell: nsCount namespaces at a 1:3
// L:T ratio, 2 L-tenants per L-ns and 8 T-tenants per T-ns, on 4 cores. It
// returns the window's result and the L and T tenant counts.
func runMultiNS(kind StackKind, nsCount int, sc Scale) (MixResult, int, int) {
	env := NewEnv(SVM(4), kind)
	env.CreateNamespaces(nsCount)
	mix := NewMix(env)
	lNS := nsCount / 4
	if lNS < 1 {
		lNS = 1
	}
	for ns := 0; ns < nsCount; ns++ {
		if ns < lNS {
			mix.AddL(2, ns)
		} else {
			mix.AddT(8, ns)
		}
	}
	mix.StartAll()
	env.Eng.RunUntil(sim.Time(sc.Warmup))
	mix.ResetStats()
	env.Eng.RunUntil(sim.Time(sc.Warmup + sc.Measure))
	return mix.Collect(sc.Measure), len(mix.LJobs), len(mix.TJobs)
}

// RunFig10 reproduces Figure 10: multi-namespace scenarios where each
// namespace hosts only L- or T-tenants, yet the multi-tenancy issue
// persists because namespaces share the NQ set (§3.2, Figure 3c). It
// sweeps namespace counts for the comparison targets.
func RunFig10(sc Scale) Table {
	t := Table{Title: "Figure 10: multi-namespace scenarios (L:T namespaces = 1:3)", Columns: []Column{
		{"stack", FmtText}, {"namespaces", FmtInt}, {"L/T tenants", FmtText},
		{"tail p99.9 (ms)", FmtMs}, {"avg (ms)", FmtMs}, {"T MB/s", FmtF1},
	}}
	type cell struct {
		r      MixResult
		nL, nT int
	}
	nNS := len(NamespaceCounts)
	for i, c := range RunCells(len(ComparisonKinds)*nNS, func(i int) cell {
		r, nL, nT := runMultiNS(ComparisonKinds[i/nNS], NamespaceCounts[i%nNS], sc)
		return cell{r, nL, nT}
	}) {
		tail, avg := lLatency(c.r)
		t.Add(ComparisonKinds[i/nNS], NamespaceCounts[i%nNS],
			strconv.Itoa(c.nL)+"/"+strconv.Itoa(c.nT), tail, avg, c.r.TMBps)
	}
	return t
}

// fig10Chart draws average latency bars per namespace count (blocked
// cells as zero).
func fig10Chart(t Table) *plot.Chart {
	var cats []string
	for _, n := range NamespaceCounts {
		cats = append(cats, strconv.Itoa(n)+" ns")
	}
	c := &plot.Chart{
		Title:  "Figure 10: multi-namespace L-tenant average latency",
		XLabel: "namespaces", YLabel: "avg latency (ms, log)",
		Kind: plot.Bars, LogY: true, Categories: cats,
	}
	for _, kind := range ComparisonKinds {
		var y []float64
		for _, n := range NamespaceCounts {
			r, ok := t.Row(kind, n)
			y = append(y, msOrZero(r, ok, "avg (ms)"))
		}
		c.Series = append(c.Series, plot.Series{Name: string(kind), Y: y})
	}
	return c
}
