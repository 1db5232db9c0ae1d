package harness

import "daredevil/internal/plot"

// TPressureCounts is the rising T-tenant schedule of §7.1.
var TPressureCounts = []int{2, 4, 8, 16, 32}

// RunFig6 reproduces Figure 6: T-pressure swept on SV-M for the comparison
// targets.
func RunFig6(sc Scale) Table {
	return runPressureSweep(SVM(4), sc)
}

// RunFig7 is the WS-M complement (Figure 7): more NSQs than cores give
// Daredevil more routing space.
func RunFig7(sc Scale) Table {
	return runPressureSweep(WSM(), sc)
}

// runPressureSweep measures, per (stack, T-count), the L-tenant p99.9 and
// average (panels a/b, blocked when no L request completed), L KIOPS
// (panel c), T MB/s (panel d), and mean core utilization (the paper notes
// Daredevil's ~2.3% extra CPU at low pressure from cross-core completion).
func runPressureSweep(m Machine, sc Scale) Table {
	t := Table{Title: "Figure 6/7 (" + m.Name + "): performance with increasing T-pressure", Columns: []Column{
		{"stack", FmtText}, {"T-tenants", FmtInt}, {"tail p99.9 (ms)", FmtMs}, {"avg (ms)", FmtMs},
		{"L KIOPS", FmtF2}, {"T MB/s", FmtF1}, {"CPU", FmtF2},
	}}
	grid := RunMixGrid(m, ComparisonKinds, 4, TPressureCounts, sc)
	for ki, kind := range ComparisonKinds {
		for ti, n := range TPressureCounts {
			r := grid[ki*len(TPressureCounts)+ti]
			tail, avg := lLatency(r)
			t.Add(kind, n, tail, avg, r.LKIOPS, r.TMBps, r.CPUUtil)
		}
	}
	return t
}

// lLatency returns a cell's L-tenant p99.9 and mean, both nil (blocked)
// when no L request completed in the window.
func lLatency(r MixResult) (tail, avg any) {
	if r.L.Count == 0 {
		return nil, nil
	}
	return r.L.P999, r.L.Mean
}

// pressureChart draws Figure 6/7 as average-latency curves per stack,
// skipping blocked cells.
func pressureChart(machine string) func(Table) *plot.Chart {
	return func(t Table) *plot.Chart {
		c := &plot.Chart{
			Title:  "Figure 6/7 (" + machine + "): L-tenant average latency vs T-pressure",
			XLabel: "T-tenants", YLabel: "avg latency (ms, log)",
			Kind: plot.Lines, LogY: true,
		}
		for _, kind := range ComparisonKinds {
			var x, y []float64
			for _, n := range TPressureCounts {
				if r, ok := t.Row(kind, n); ok && !r.Blocked("avg (ms)") {
					x = append(x, float64(n))
					y = append(y, r.Dur("avg (ms)").Milliseconds())
				}
			}
			if len(x) > 0 {
				c.Series = append(c.Series, plot.Series{Name: string(kind), X: x, Y: y})
			}
		}
		return c
	}
}
