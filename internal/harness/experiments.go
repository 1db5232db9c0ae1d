package harness

import (
	"fmt"

	"daredevil/internal/plot"
)

// Experiment is one reproducible artifact of the paper's evaluation or of
// its extensions: how to run it and, for the figures, how to chart it.
type Experiment struct {
	Name string
	Run  func(Scale) Table
	// Chart draws the figure for ddbench -svg; nil for text-only tables.
	Chart func(Table) *plot.Chart
}

// Experiments is the one place an experiment is declared. ddbench, the
// public facade and the benchmarks iterate it in this order.
var Experiments = []Experiment{
	{"table1", func(Scale) Table { return RunTable1() }, nil},
	{"fig2", RunFig2, fig2Chart},
	{"fig6", RunFig6, pressureChart("SV-M")},
	{"fig7", RunFig7, pressureChart("WS-M")},
	{"fig8", RunFig8, fig8Chart},
	{"fig9", RunFig9, fig9Chart},
	{"fig10", RunFig10, fig10Chart},
	{"fig11", RunFig11, fig11Chart},
	{"fig12", RunFig12, fig12Chart},
	{"fig13", RunFig13, fig13Chart},
	{"fig14", RunFig14, fig14Chart},
	{"ext-sched", RunExtSchedulers, nil},
	{"ext-wrr", RunExtWRR, nil},
	{"ext-poll", RunExtPolling, nil},
	{"ext-virtio", RunExtVirtio, nil},
	{"ext-webapp", RunExtWebapp, nil},
	{"ext-gc", RunExtGC, nil},
	{"ext-fault", func(sc Scale) Table { return RunExtFault(DefaultFaultSeed, sc) }, nil},
}

// ExperimentNames lists the registry's names in order.
func ExperimentNames() []string {
	names := make([]string, len(Experiments))
	for i, e := range Experiments {
		names[i] = e.Name
	}
	return names
}

// FindExperiment returns the named experiment.
func FindExperiment(name string) (Experiment, error) {
	for _, e := range Experiments {
		if e.Name == name {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("unknown experiment %q (want one of %v)", name, ExperimentNames())
}

// Table runs the experiment and names its table after it.
func (e Experiment) Table(sc Scale) Table {
	t := e.Run(sc)
	t.Name = e.Name
	return t
}

// msOrZero reads a duration in milliseconds from a looked-up row; a
// missing row or blocked value plots as zero.
func msOrZero(r Row, ok bool, col string) float64 {
	if !ok {
		return 0
	}
	return r.Dur(col).Milliseconds()
}
