package harness

import (
	"fmt"
	"math"

	"daredevil/internal/plot"
	"daredevil/internal/sim"
	"daredevil/internal/stats"
)

// fig8Phases is the T-tenant count of each Figure 8 phase.
var fig8Phases = []int{4, 8, 16, 32}

// RunFig8 reproduces Figure 8: per-window average L latency (ms; zero when
// no L request completed) and T throughput while T-pressure steps up
// 4→8→16→32 on WS-M, one phase per measurement window.
func RunFig8(sc Scale) Table {
	phaseLen := sc.Measure
	window := phaseLen / 8
	if window <= 0 {
		window = sim.Millisecond
	}
	t := Table{
		Title: fmt.Sprintf("Figure 8 (WS-M): behavior during rising T-pressure (phases %v, %v each)",
			fig8Phases, phaseLen),
		Columns: []Column{{"window", FmtText}},
	}
	type point struct{ lAvgMs, tMBps float64 }
	var series [][]point
	for _, kind := range ComparisonKinds {
		t.Columns = append(t.Columns,
			Column{string(kind) + " Lavg(ms)", FmtF2}, Column{string(kind) + " T(MB/s)", FmtF1})
		env := NewEnv(WSM(), kind)
		mix := NewMix(env)
		mix.AddL(4, 0)
		mix.AddT(fig8Phases[len(fig8Phases)-1], 0)
		for _, j := range mix.AllJobs() {
			j.EnableSeries(window)
		}
		// Start L-tenants and the first phase's T-tenants now; add more at
		// each phase boundary.
		for _, j := range mix.LJobs {
			j.Start(env.Eng, env.Pool, env.Stack)
		}
		started := 0
		for pi, n := range fig8Phases {
			at := sim.Time(sim.Duration(pi) * phaseLen)
			count := n - started
			from := started
			jobs := mix.TJobs[from : from+count]
			env.Eng.At(at, func() {
				for _, j := range jobs {
					j.Start(env.Eng, env.Pool, env.Stack)
				}
			})
			started = n
		}
		end := sim.Time(sim.Duration(len(fig8Phases)) * phaseLen)
		env.Eng.RunUntil(end)

		// Merge job series point-wise.
		var latSets [][]stats.SeriesPoint
		for _, j := range mix.LJobs {
			latSets = append(latSets, j.LatSeries.Finish(end))
		}
		var tputSets [][]stats.SeriesPoint
		for _, j := range mix.TJobs {
			tputSets = append(tputSets, j.TputSeries.Finish(end))
		}
		// Merge up to the longest series actually produced: a run end that is
		// not window-aligned yields a final partial window (Series.Finish
		// flushes it), and truncating to end/window would drop it.
		n := 0
		for _, s := range latSets {
			if len(s) > n {
				n = len(s)
			}
		}
		for _, s := range tputSets {
			if len(s) > n {
				n = len(s)
			}
		}
		var ser []point
		for i := 0; i < n; i++ {
			var p point
			var latSum float64
			var latN int
			for _, s := range latSets {
				if i < len(s) && s[i].Value > 0 {
					latSum += s[i].Value
					latN++
				}
			}
			if latN > 0 {
				p.lAvgMs = latSum / float64(latN)
			}
			var bytes float64
			for _, s := range tputSets {
				if i < len(s) {
					bytes += s[i].Value
				}
			}
			p.tMBps = bytes / 1e6 / window.Seconds()
			ser = append(ser, p)
		}
		series = append(series, ser)
	}
	for i := range series[0] {
		row := []any{sim.Time(sim.Duration(i) * window)}
		for _, s := range series {
			row = append(row, s[i].lAvgMs, s[i].tMBps)
		}
		t.Add(row...)
	}
	return t
}

// fig8Fluctuation reports the coefficient of variation of a stack's
// windowed L latency over the last phase — the instability blk-switch
// exhibits.
func fig8Fluctuation(t Table, kind StackKind) float64 {
	col := string(kind) + " Lavg(ms)"
	from := len(t.Rows) * (len(fig8Phases) - 1) / len(fig8Phases)
	// Blocked windows (no L completion) count as zero: total blockage is
	// the extreme form of fluctuation (Fig. 6c).
	var vals []float64
	nonzero := false
	for i := from; i < len(t.Rows); i++ {
		v := t.At(i).Float(col)
		vals = append(vals, v)
		if v > 0 {
			nonzero = true
		}
	}
	if len(vals) < 2 || !nonzero {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	mean := sum / float64(len(vals))
	var ss float64
	for _, v := range vals {
		ss += (v - mean) * (v - mean)
	}
	std := ss / float64(len(vals))
	if mean == 0 {
		return 0
	}
	return math.Sqrt(std) / mean
}

// fig8Chart draws the windowed L-latency series per stack.
func fig8Chart(t Table) *plot.Chart {
	c := &plot.Chart{
		Title:  "Figure 8 (WS-M): windowed L-tenant latency, rising T-pressure",
		XLabel: "time (ms)", YLabel: "window avg latency (ms, log)",
		Kind: plot.Lines, LogY: true,
	}
	for _, kind := range ComparisonKinds {
		var x, y []float64
		for i := range t.Rows {
			r := t.At(i)
			lat := r.Float(string(kind) + " Lavg(ms)")
			if lat <= 0 {
				continue // blocked windows have no defined latency
			}
			x = append(x, sim.Duration(r.Value("window").(sim.Time)).Milliseconds())
			y = append(y, lat)
		}
		if len(x) > 0 {
			c.Series = append(c.Series, plot.Series{Name: string(kind), X: x, Y: y})
		}
	}
	return c
}
