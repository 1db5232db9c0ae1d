package obs

import (
	"bufio"
	"io"
	"strconv"

	"daredevil/internal/sim"
	"daredevil/internal/stats"
)

// Sampler drives the metrics surface: one periodic engine event reads every
// registered gauge and feeds one stats.Series per gauge, all sharing the
// same window grid. The tick closure is bound once at construction, so the
// steady state schedules without allocating.
type Sampler struct {
	eng    *sim.Engine
	reg    *Registry
	window sim.Duration

	series []*stats.Series
	tickFn func()

	started  bool
	finished bool
	end      sim.Time
}

func newSampler(eng *sim.Engine, reg *Registry, window sim.Duration) *Sampler {
	if window <= 0 {
		window = sim.Duration(100 * 1000) // 100µs default cadence
	}
	s := &Sampler{eng: eng, reg: reg, window: window}
	s.tickFn = s.tick
	return s
}

// Window reports the sampling cadence.
func (s *Sampler) Window() sim.Duration { return s.window }

// start materialises one series per registered gauge and arms the periodic
// tick. Gauges registered after start are ignored — registration must
// finish before the run begins, which also freezes the export order.
func (s *Sampler) start() {
	if s.started {
		return
	}
	s.started = true
	gs := s.reg.Gauges()
	s.series = make([]*stats.Series, len(gs))
	for i := range gs {
		s.series[i] = &stats.Series{Window: s.window, SumMode: false}
	}
	if len(gs) > 0 {
		s.eng.After(s.window, s.tickFn)
	}
}

func (s *Sampler) tick() {
	now := s.eng.Now()
	gs := s.reg.Gauges()
	for i := range gs {
		s.series[i].Add(now, gs[i].Fn())
	}
	s.eng.After(s.window, s.tickFn)
}

// finish flushes every series' final partial window at run end t.
func (s *Sampler) finish(t sim.Time) {
	if s.finished || !s.started {
		return
	}
	s.finished = true
	s.end = t
	for _, sr := range s.series {
		sr.Finish(t)
	}
}

// Series returns the sampled series in gauge registration order. Valid
// after finish.
func (s *Sampler) Series() []SampledSeries {
	gs := s.reg.Gauges()
	out := make([]SampledSeries, 0, len(gs))
	for i := range gs {
		if i >= len(s.series) {
			break
		}
		out = append(out, SampledSeries{Name: gs[i].Name, Points: s.series[i].Points()})
	}
	return out
}

// WriteCSV emits the sampled series as an aligned matrix: one row per
// window, first column the window start in microseconds, one column per
// gauge in registration order. Windows missing from a series (gauge series
// all share a grid, so this only happens at the tail) render empty.
func (s *Sampler) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	ser := s.Series()
	bw.WriteString("t_us")
	for _, sr := range ser {
		bw.WriteByte(',')
		bw.WriteString(sr.Name)
	}
	bw.WriteByte('\n')
	rows := 0
	for _, sr := range ser {
		if len(sr.Points) > rows {
			rows = len(sr.Points)
		}
	}
	for row := 0; row < rows; row++ {
		wrote := false
		for _, sr := range ser {
			if row < len(sr.Points) {
				bw.WriteString(usec(sr.Points[row].At))
				wrote = true
				break
			}
		}
		if !wrote {
			break
		}
		for _, sr := range ser {
			bw.WriteByte(',')
			if row < len(sr.Points) {
				bw.WriteString(strconv.FormatFloat(sr.Points[row].Value, 'g', -1, 64))
			}
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}
