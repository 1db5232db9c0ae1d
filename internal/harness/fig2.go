package harness

import "daredevil/internal/plot"

// RunFig2 reproduces Figure 2, the severity of the multi-tenancy issue: 4
// L-tenants against 0..32 T-tenants on 4 cores, with interference (vanilla
// blk-mq, L- and T-tenants co-located within the same NQs) and without it
// (the modified blk-mq that splits the 4 NQs between classes).
func RunFig2(sc Scale) Table {
	t := Table{Title: "Figure 2: L-tenant latency w/ and w/o NQ interference (ms)", Columns: []Column{
		{"T-tenants", FmtInt}, {"w/ tail(p99.9)", FmtMs}, {"w/o tail(p99.9)", FmtMs},
		{"w/ avg", FmtMs}, {"w/o avg", FmtMs},
	}}
	for _, n := range []int{0, 2, 4, 8, 16, 32} {
		with := RunMixOnce(SVM(4), Vanilla, 4, n, sc)
		without := RunMixOnce(SVM(4), StaticPart, 4, n, sc)
		t.Add(n, with.L.P999, without.L.P999, with.L.Mean, without.L.Mean)
	}
	return t
}

// fig2Chart draws the two latency curves per configuration.
func fig2Chart(t Table) *plot.Chart {
	c := &plot.Chart{
		Title:  "Figure 2: L-tenant latency w/ and w/o NQ interference",
		XLabel: "co-running T-tenants", YLabel: "latency (ms, log)",
		Kind: plot.Lines, LogY: true,
	}
	x := make([]float64, len(t.Rows))
	for i := range t.Rows {
		x[i] = float64(t.At(i).Int("T-tenants"))
	}
	for _, s := range []struct{ name, col string }{
		{"w/ tail p99.9", "w/ tail(p99.9)"}, {"w/o tail p99.9", "w/o tail(p99.9)"},
		{"w/ avg", "w/ avg"}, {"w/o avg", "w/o avg"},
	} {
		y := make([]float64, len(t.Rows))
		for i := range t.Rows {
			y[i] = t.At(i).Dur(s.col).Milliseconds()
		}
		c.Series = append(c.Series, plot.Series{Name: s.name, X: x, Y: y})
	}
	return c
}
