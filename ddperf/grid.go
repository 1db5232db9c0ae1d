package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"daredevil/internal/harness"
	"daredevil/internal/scenario"
	"daredevil/internal/sim"
)

// minPasses keeps the medians meaningful on short runs.
const minPasses = 3

// mixSteadyDocs generates the mix-steady scenarios: the §7.1 interference
// mix swept over every stack, once per testbed. The seed shifts only the
// tenants' random streams, so every seed simulates the same event
// population up to sampling noise.
func mixSteadyDocs(seed uint64) [][]byte {
	rng := rand.New(rand.NewPCG(seed, 0x6d6978))
	stacks := make([]string, len(harness.AllKinds))
	for i, k := range harness.AllKinds {
		stacks[i] = string(k)
	}
	var docs [][]byte
	for _, machine := range []string{"svm", "wsm"} {
		docs = append(docs, mustMarshal(scenario.Scenario{
			Machine: machine, Cores: coresOf(machine),
			WarmupMs: 150, MeasureMs: 600,
			Seed: 1 + rng.Uint64N(1<<20),
			Jobs: []scenario.Job{
				{Name: "L", Class: "L", Count: 4},
				{Name: "T", Class: "T", Count: 16},
			},
			Sweep: []scenario.Axis{{Param: "stack", Stacks: stacks}},
		}))
	}
	return docs
}

// agedGCDocs generates the aged-gc scenario: an FTL device at its default
// aging (precondition 100%, scramble 30%, OP 7%) under random overwrites
// with periodic TRIM, on the paper's three comparison stacks.
func agedGCDocs(seed uint64) [][]byte {
	rng := rand.New(rand.NewPCG(seed, 0x616765))
	readPct := 0
	return [][]byte{mustMarshal(scenario.Scenario{
		Machine: "svm", Cores: 4, FTL: true,
		WarmupMs: 100, MeasureMs: 400,
		Seed: 1 + rng.Uint64N(1<<20),
		Jobs: []scenario.Job{
			{Name: "L", Class: "L", Count: 4},
			{Name: "T", Class: "T", Count: 4, Pattern: "random", ReadPct: &readPct, IODepth: 4, TrimEvery: 8},
		},
		Sweep: []scenario.Axis{{Param: "stack", Stacks: []string{
			string(harness.Vanilla), string(harness.BlkSwitch), string(harness.DareFull),
		}}},
	})}
}

func coresOf(machine string) int {
	if machine == "wsm" {
		return 0 // WS-M has a fixed 8 cores
	}
	return 4
}

func mustMarshal(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return data
}

func runMixSteady(b *bench) error {
	return runGrid(b, mixSteadyDocs(b.cfg.seed), true)
}

func runAgedGC(b *bench) error {
	return runGrid(b, agedGCDocs(b.cfg.seed), false)
}

// cellRun is one executed grid cell.
type cellRun struct {
	doc     int    // index of the scenario document it came from
	label   string // testbed and sweep labels
	kind    harness.StackKind
	result  harness.CellResult
	json    []byte // the CellResult as JSON, compared across runs
	setup   time.Duration
	run     time.Duration
	virtual sim.Duration
	counts  cellCounts
	err     error // why the cell failed to run, if it did
}

// cellCounts are read from the cell's public fields after Run.
type cellCounts struct {
	events, submitted, fetched, completed, irqs uint64
	pagesRead, pagesWritten, erases             uint64
	ops, switches                               uint64
}

// grid runs a fixed list of scenario documents, one pass at a time.
type grid struct {
	docs   [][]byte
	ref    []cellRun // the reference pass, which every later pass must equal
	cell   int       // cell serial, the span key of a cell
	passNo int       // pass serial, the span key of a pass
}

// runGrid measures a grid workload: a reference pass (untimed, so lazy
// set-up finishes first), then the timed phase, whose every pass re-runs
// each cell and must reproduce the reference byte for byte.
func runGrid(b *bench, docs [][]byte, paperShape bool) error {
	g := &grid{docs: docs}
	ref, _, err := g.pass(nil, 0)
	if err != nil {
		return err
	}
	g.ref = ref
	for _, c := range ref {
		b.res.op(checkCell(c))
	}
	if paperShape {
		for _, err := range shapeChecks(ref) {
			b.res.op(err)
		}
	}
	jsons := make([][]byte, len(ref))
	for i, c := range ref {
		jsons[i] = c.json
	}
	b.res.Digest = digest(jsons)
	if err := b.measure(func(seconds float64, tr *tracer) (phase, error) {
		return g.timed(b.res, seconds, tr)
	}); err != nil {
		return err
	}
	return nil
}

// pass runs every document once: Parse, Expand, then CellSpec, BuildCell
// and Run for each cell. setup is the pass's host time before simulation
// could start, summed over documents and cells.
func (g *grid) pass(tr *tracer, passNo int) (cells []cellRun, setup time.Duration, err error) {
	ps := tr.begin("pass", passNo, 0)
	defer tr.end(ps)
	for di, doc := range g.docs {
		t0 := time.Now()
		s := tr.begin("parse", passNo, ps)
		sc, err := scenario.Parse(doc)
		tr.end(s)
		if err != nil {
			return nil, 0, err
		}
		s = tr.begin("expand", passNo, ps)
		points, err := sc.Expand()
		tr.end(s)
		if err != nil {
			return nil, 0, err
		}
		setup += time.Since(t0)
		for _, p := range points {
			g.cell++
			// A failed cell keeps its slot so the grid stays aligned.
			c := runCell(p, tr, g.cell, ps)
			c.doc = di
			c.label = strings.Join(append([]string{sc.Machine}, p.Labels...), ",")
			setup += c.setup
			cells = append(cells, c)
		}
	}
	return cells, setup, nil
}

// runCell materializes and runs one grid point, recording an error or a
// panic in the program as the cell's error.
func runCell(p scenario.Point, tr *tracer, key, parent int) (c cellRun) {
	defer func() {
		if r := recover(); r != nil {
			c.err = fmt.Errorf("panic: %v", r)
		}
	}()
	cs := tr.begin("cell", key, parent)
	defer tr.end(cs)
	t0 := time.Now()
	s := tr.begin("cellspec", key, cs)
	spec, err := p.Scenario.CellSpec()
	tr.end(s)
	if err != nil {
		c.err = err
		return c
	}
	s = tr.begin("build", key, cs)
	cell := harness.BuildCell(spec)
	tr.end(s)
	t1 := time.Now()
	s = tr.begin("run", key, cs)
	res := cell.Run(spec.Warmup, spec.Measure)
	tr.end(s)
	c.run = time.Since(t1)
	c.setup = t1.Sub(t0)
	c.kind = spec.Kind
	c.virtual = spec.Warmup + spec.Measure
	c.result = res
	c.counts = countCell(cell)
	c.json, c.err = json.Marshal(res)
	return c
}

// countCell reads the per-layer work counts from the cell's public fields.
func countCell(cell *harness.Cell) cellCounts {
	env := cell.Env
	n := cellCounts{events: env.Eng.Executed}
	for i := 0; i < env.Dev.NumNSQ(); i++ {
		q := env.Dev.NSQ(i)
		n.submitted += q.Submitted
		n.fetched += q.Fetched
	}
	for i := 0; i < env.Dev.NumNCQ(); i++ {
		q := env.Dev.NCQOf(i)
		n.completed += q.Completed
		n.irqs += q.IRQs
	}
	fs := env.Dev.Media().Stats()
	n.pagesRead, n.pagesWritten, n.erases = fs.PagesRead, fs.PagesWritten, fs.Erases
	for _, j := range cell.Mix.AllJobs() {
		n.ops += j.Done.Ops
	}
	for _, core := range env.Pool.Cores() {
		n.switches += core.Switches
	}
	return n
}

// checkCell applies the conservation checks to one cell: the device
// completes no more commands than were submitted, and every cell does
// work in its measurement window.
func checkCell(c cellRun) error {
	switch {
	case c.err != nil:
		return fmt.Errorf("%s: %w", c.label, c.err)
	case c.counts.completed > c.counts.submitted:
		return fmt.Errorf("%s: nvme completed %d > submitted %d", c.label, c.counts.completed, c.counts.submitted)
	case c.counts.ops == 0:
		return fmt.Errorf("%s: no workload operations completed", c.label)
	case c.result.FTL != nil && c.result.FTL.GCRuns == 0:
		return fmt.Errorf("%s: aged device ran no garbage collection", c.label)
	}
	return nil
}

// shapeChecks holds the model to the paper's headline shape: on every
// testbed daredevil's L-tenant p99 is below vanilla's.
func shapeChecks(cells []cellRun) []error {
	byDoc := map[int]map[harness.StackKind]cellRun{}
	for _, c := range cells {
		if byDoc[c.doc] == nil {
			byDoc[c.doc] = map[harness.StackKind]cellRun{}
		}
		byDoc[c.doc][c.kind] = c
	}
	var errs []error
	for doc := 0; doc < len(byDoc); doc++ {
		dd, okD := byDoc[doc][harness.DareFull]
		va, okV := byDoc[doc][harness.Vanilla]
		var err error
		switch {
		case !okD || !okV:
			err = fmt.Errorf("document %d: missing daredevil or vanilla cell", doc)
		case dd.result.LTenantLatency.P99 >= va.result.LTenantLatency.P99:
			err = fmt.Errorf("%s: daredevil L p99 %v not below vanilla's %v", dd.label,
				dd.result.LTenantLatency.P99, va.result.LTenantLatency.P99)
		}
		errs = append(errs, err)
	}
	return errs
}

// timed runs whole passes until the budget is spent and reduces them to
// the phase's metrics. Every pass must reproduce the reference pass byte
// for byte.
func (g *grid) timed(res *result, seconds float64, tr *tracer) (phase, error) {
	smp := newSampler()
	var ps passStats
	var runNs float64
	var events uint64
	cells := 0
	start := smp.read()
	t0 := time.Now()
	for pass := 1; pass <= minPasses || time.Since(t0).Seconds() < seconds; pass++ {
		g.passNo++
		before := smp.read()
		p0 := time.Now()
		run, setup, err := g.pass(tr, g.passNo)
		wall := time.Since(p0)
		after := smp.read()
		if err != nil {
			return nil, err
		}
		var passRun time.Duration
		var virtual sim.Duration
		lat := make([]float64, 0, len(run))
		for i, c := range run {
			if c.err == nil && !bytes.Equal(c.json, g.ref[i].json) {
				c.err = fmt.Errorf("pass %d result differs from the reference pass", g.passNo)
			}
			res.op(checkCell(c))
			passRun += c.run
			virtual += c.virtual
			events += c.counts.events
			lat = append(lat, float64(c.setup+c.run)/1e6)
		}
		cells += len(run)
		runNs += float64(passRun)
		ps.add(wall.Seconds(), setup.Seconds(), virtual.Milliseconds()/passRun.Seconds(), lat,
			float64(after.allocBytes-before.allocBytes)/1e6)
	}
	res.Samples["passes"] += len(ps.wall)
	res.Samples["cells"] += cells
	p := ps.phase()
	p["runtime.gc_cpu_frac"] = gcFrac(start, smp.read())
	if events > 0 {
		p["sim.host_ns_per_event"] = runNs / float64(events)
	}
	g.layerCounts(p)
	return p, nil
}

// layerCounts adds the reference pass's per-layer counts and modelled
// statistics; later passes are checked to be identical to it.
func (g *grid) layerCounts(p phase) {
	var n cellCounts
	var waf float64
	ftlCells := 0
	for _, c := range g.ref {
		n.events += c.counts.events
		n.fetched += c.counts.fetched
		n.irqs += c.counts.irqs
		n.pagesRead += c.counts.pagesRead
		n.pagesWritten += c.counts.pagesWritten
		n.erases += c.counts.erases
		n.ops += c.counts.ops
		n.switches += c.counts.switches
		if f := c.result.FTL; f != nil {
			ftlCells++
			waf += f.WriteAmplification
			p["ftl.gc_runs"] += float64(f.GCRuns)
			p["ftl.gc_pages_moved"] += float64(f.GCPagesMoved)
			p["ftl.foreground_gcs"] += float64(f.ForegroundGCs)
		}
	}
	if ftlCells > 0 {
		p["ftl.waf"] = waf / float64(ftlCells)
	}
	p["sim.events"] = float64(n.events)
	p["nvme.fetched"] = float64(n.fetched)
	p["nvme.irqs"] = float64(n.irqs)
	p["flash.pages_read"] = float64(n.pagesRead)
	p["flash.pages_written"] = float64(n.pagesWritten)
	p["flash.erases"] = float64(n.erases)
	p["workload.ops"] = float64(n.ops)
	p["cpus.switches"] = float64(n.switches)
	// The modelled statistics of each stack's first cell (on mix-steady,
	// the SV-M testbed).
	for i := len(g.ref) - 1; i >= 0; i-- {
		c := g.ref[i]
		k := string(c.kind)
		p["model.l_p99_us."+k] = c.result.LTenantLatency.P99.Microseconds()
		p["model.l_p999_us."+k] = c.result.LTenantLatency.P999.Microseconds()
		p["model.t_mbps."+k] = c.result.TThroughputMBps
	}
}
