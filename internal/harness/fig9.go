package harness

import (
	"fmt"

	"daredevil/internal/plot"
	"daredevil/internal/sim"
)

// fig9Cores and fig9TCounts span Figure 9's grid.
var (
	fig9Cores   = []int{2, 4, 8}
	fig9TCounts = []int{4, 32}
)

// RunFig9 reproduces Figure 9, sensitivity to available CPU cores: L-tenant
// p99.9 with 2, 4, 8 cores under low and high T-pressure on SV-M.
func RunFig9(sc Scale) Table {
	type spec struct {
		cores, n int
		kind     StackKind
	}
	var specs []spec
	for _, cores := range fig9Cores {
		for _, n := range fig9TCounts {
			for _, kind := range ComparisonKinds {
				specs = append(specs, spec{cores, n, kind})
			}
		}
	}
	t := Table{Title: "Figure 9: L-tenant p99.9 tail latency (ms) vs available cores (SV-M)", Columns: []Column{
		{"stack", FmtText}, {"cores", FmtInt}, {"T-tenants", FmtInt}, {"tail p99.9 (ms)", FmtMs},
	}}
	for i, tail := range RunCells(len(specs), func(i int) sim.Duration {
		s := specs[i]
		return RunMixOnce(SVM(s.cores), s.kind, 4, s.n, sc).L.P999
	}) {
		t.Add(specs[i].kind, specs[i].cores, specs[i].n, tail)
	}
	return t
}

// fig9Chart draws grouped bars (cores x pressure) per stack.
func fig9Chart(t Table) *plot.Chart {
	var cats []string
	for _, cores := range fig9Cores {
		for _, n := range fig9TCounts {
			cats = append(cats, fmt.Sprintf("%dc/%dT", cores, n))
		}
	}
	c := &plot.Chart{
		Title:  "Figure 9: L-tenant p99.9 vs available cores",
		XLabel: "cores / T-tenants", YLabel: "tail latency (ms, log)",
		Kind: plot.Bars, LogY: true, Categories: cats,
	}
	for _, kind := range ComparisonKinds {
		var y []float64
		for _, cores := range fig9Cores {
			for _, n := range fig9TCounts {
				r, ok := t.Row(kind, cores, n)
				y = append(y, msOrZero(r, ok, "tail p99.9 (ms)"))
			}
		}
		c.Series = append(c.Series, plot.Series{Name: string(kind), Y: y})
	}
	return c
}
