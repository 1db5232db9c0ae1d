package harness

import (
	"daredevil/internal/plot"
	"daredevil/internal/sim"
	"daredevil/internal/workload"
)

// Fig14Intervals is the update-interval sweep (1s down to 10µs).
var Fig14Intervals = []sim.Duration{
	sim.Second, 100 * sim.Millisecond, 10 * sim.Millisecond,
	sim.Millisecond, 100 * sim.Microsecond, 10 * sim.Microsecond,
}

// RunFig14 reproduces Figure 14: performance under continuously updated
// tenant base priorities, which force default-NSQ re-scheduling (§7.5). It
// runs 4 L + 4 T tenants on Daredevil while an updater re-sets ionice
// values at decreasing intervals, and reports L IOPS and T MB/s normalized
// to the no-update baseline (1.0), CPU utilization, and the updates done.
// All cells (the baseline included) fan out together; normalization
// happens after assembly, so the parallel result matches the serial one.
func RunFig14(sc Scale) Table {
	type cell struct {
		r       MixResult
		updates uint64
	}
	intervals := append([]sim.Duration{0}, Fig14Intervals...)
	cells := RunCells(len(intervals), func(i int) cell {
		r, updates := runFig14Cell(intervals[i], sc)
		return cell{r, updates}
	})
	t := Table{Title: "Figure 14: normalized performance under ionice update storms (Daredevil)", Columns: []Column{
		{"interval", FmtText}, {"L IOPS (norm)", FmtF2}, {"T MB/s (norm)", FmtF2}, {"CPU util", FmtF2}, {"updates", FmtInt},
	}}
	base := cells[0].r
	t.Add("none", 1.0, 1.0, base.CPUUtil, uint64(0))
	for i, iv := range Fig14Intervals {
		c := cells[i+1]
		var liops, tput float64
		if base.LKIOPS > 0 {
			liops = c.r.LKIOPS / base.LKIOPS
		}
		if base.TMBps > 0 {
			tput = c.r.TMBps / base.TMBps
		}
		t.Add(iv.String(), liops, tput, c.r.CPUUtil, c.updates)
	}
	return t
}

func runFig14Cell(interval sim.Duration, sc Scale) (MixResult, uint64) {
	env := NewEnv(SVM(4), DareFull)
	mix := NewMix(env)
	mix.AddL(4, 0)
	mix.AddT(4, 0)
	mix.StartAll()
	var up *workload.IoniceUpdater
	if interval > 0 {
		up = workload.StartIoniceUpdater(env.Eng, env.Stack, mix.Tenants(),
			interval, sim.Time(sc.Warmup+sc.Measure))
	}
	env.Eng.RunUntil(sim.Time(sc.Warmup))
	mix.ResetStats()
	env.Eng.RunUntil(sim.Time(sc.Warmup + sc.Measure))
	var updates uint64
	if up != nil {
		updates = up.Updates
	}
	return mix.Collect(sc.Measure), updates
}

// fig14Chart draws the normalized performance curves against updates per
// second (the baseline row has no updates and no X position).
func fig14Chart(t Table) *plot.Chart {
	var x, iops, tput, cpu []float64
	for i, iv := range Fig14Intervals {
		r := t.At(i + 1)
		x = append(x, 1e9/float64(iv))
		iops = append(iops, r.Float("L IOPS (norm)"))
		tput = append(tput, r.Float("T MB/s (norm)"))
		cpu = append(cpu, r.Float("CPU util"))
	}
	return &plot.Chart{
		Title:  "Figure 14: normalized performance under ionice update storms",
		XLabel: "updates per second per tenant", YLabel: "normalized",
		Kind: plot.Lines,
		Series: []plot.Series{
			{Name: "L IOPS (norm)", X: x, Y: iops},
			{Name: "T MB/s (norm)", X: x, Y: tput},
			{Name: "CPU util", X: x, Y: cpu},
		},
	}
}
