package harness

import "daredevil/internal/plot"

// AblationKinds are the §7.3 subsystem decomposition targets.
var AblationKinds = []StackKind{DareBase, DareSched, DareFull}

// Figure 11's panel labels: rising T-pressure (x = T-tenants) and varying
// namespace counts (x = namespaces).
const (
	fig11Single = "single-ns (a/b)"
	fig11Multi  = "multi-ns (c/d)"
)

// RunFig11 reproduces Figure 11, decomposing Daredevil's optimizations into
// dare-base, dare-sched, and dare-full. Both ablation sweeps run as one
// fanned-out grid.
func RunFig11(sc Scale) Table {
	type spec struct {
		kind  StackKind
		x     int
		multi bool
	}
	var specs []spec
	for _, kind := range AblationKinds {
		for _, n := range TPressureCounts {
			specs = append(specs, spec{kind, n, false})
		}
		for _, n := range NamespaceCounts {
			specs = append(specs, spec{kind, n, true})
		}
	}
	cells := RunCells(len(specs), func(i int) MixResult {
		s := specs[i]
		if s.multi {
			r, _, _ := runMultiNS(s.kind, s.x, sc)
			return r
		}
		return RunMixOnce(SVM(4), s.kind, 4, s.x, sc)
	})
	t := Table{Title: "Figure 11: decomposition of Daredevil's optimizations", Columns: []Column{
		{"panel", FmtText}, {"subsystem", FmtText}, {"x", FmtInt}, {"tail p99.9 (ms)", FmtMs}, {"avg (ms)", FmtMs},
	}}
	for _, multi := range []bool{false, true} {
		panel := fig11Single
		if multi {
			panel = fig11Multi
		}
		for i, s := range specs {
			if s.multi == multi {
				t.Add(panel, s.kind, s.x, cells[i].L.P999, cells[i].L.Mean)
			}
		}
	}
	return t
}

// fig11Chart draws the single-namespace ablation curves.
func fig11Chart(t Table) *plot.Chart {
	c := &plot.Chart{
		Title:  "Figure 11: subsystem decomposition (single namespace)",
		XLabel: "T-tenants", YLabel: "avg latency (ms)",
		Kind: plot.Lines,
	}
	for _, kind := range AblationKinds {
		var x, y []float64
		for _, n := range TPressureCounts {
			r, _ := t.Row(fig11Single, kind, n)
			x = append(x, float64(n))
			y = append(y, r.Dur("avg (ms)").Milliseconds())
		}
		c.Series = append(c.Series, plot.Series{Name: string(kind), X: x, Y: y})
	}
	return c
}
