package harness

import (
	"daredevil/internal/ftl"
	"daredevil/internal/sim"
	"daredevil/internal/workload"
)

// This file holds the ext-gc experiment: the four stacks on an aged device
// with the internal/ftl translation layer active, across over-provisioning
// levels and with/without TRIM. It probes §8.1's claim from the device
// side: GC relocation and erases share the die FIFOs with foreground I/O,
// so even a stack that isolates L-tenants perfectly in the queues cannot
// isolate them from the device's own writes — but the stack ordering must
// survive.

// ExtGCOPs are the over-provisioning levels swept (percent): 7% is a
// consumer drive with static spare, 28% an enterprise one.
var ExtGCOPs = []float64{7, 15, 28}

// ExtGCStacks are the stacks compared on the aged device.
var ExtGCStacks = []StackKind{Vanilla, BlkSwitch, StaticPart, DareFull}

// ExtGCCell is one (stack, OP, trim) measurement on the aged device.
type ExtGCCell struct {
	Kind  StackKind
	OPPct float64
	Trim  bool

	// WA is flash-pages-written / host-pages-written over the window.
	WA float64
	// GCRuns counts victim blocks collected; GCPauseP99 is the p99
	// per-victim collection time (first relocation to erase completion).
	GCRuns     uint64
	GCPauseP99 sim.Duration
	// ForegroundGCs counts host writes that stalled for an inline
	// collection (the write cliff).
	ForegroundGCs uint64
	// TrimmedPages counts pages invalidated by Deallocate.
	TrimmedPages uint64

	LTail sim.Duration
	LAvg  sim.Duration
	TMBps float64
}

// RunExtGCCell runs one aged-device configuration: 4 L-tenants against 4
// overwrite-heavy T-tenants (random writes are the canonical GC workload —
// sequential overwrites age into perfectly invalid blocks and hide WA). The
// T depth is lowered to 4: each 128KB write fans across ~32 dies, so the
// closed loop self-throttles near the aged device's write capacity — making
// T MB/s a direct read of how much bandwidth GC leaves — instead of piling
// a multi-second backlog into the die FIFOs the way the paper-default 8x32
// depth would once write amplification cuts effective bandwidth
// several-fold. With trim, every 8th T-request is a Deallocate sweeping the
// span.
func RunExtGCCell(kind StackKind, opPct float64, trim bool, sc Scale) ExtGCCell {
	m := SVM(4)
	fcfg := ftl.DefaultConfig()
	fcfg.OPPct = opPct
	m.FTL = &fcfg

	env := NewEnv(m, kind)
	mix := NewMix(env)
	mix.AddL(4, 0)
	for i := 0; i < 4; i++ {
		cfg := workload.DefaultTTenant("fio-T", i%env.Pool.N())
		cfg.Pattern = workload.Random
		cfg.ReadPct = 0
		cfg.IODepth = 4
		if trim {
			cfg.TrimEvery = 8
		}
		mix.TJobs = append(mix.TJobs, workload.NewJob(100+i, cfg))
	}
	mix.StartAll()
	env.Eng.RunUntil(sim.Time(sc.Warmup))
	mix.ResetStats()
	env.FTL.ResetStats()
	env.Eng.RunUntil(sim.Time(sc.Warmup + sc.Measure))
	r := mix.Collect(sc.Measure)
	st := env.FTL.Stats()
	return ExtGCCell{
		Kind: kind, OPPct: opPct, Trim: trim,
		WA:            st.WriteAmplification(),
		GCRuns:        st.GCRuns,
		GCPauseP99:    env.FTL.GCPauses.Quantile(0.99),
		ForegroundGCs: st.ForegroundGCs,
		TrimmedPages:  st.TrimmedPages,
		LTail:         r.L.P999,
		LAvg:          r.L.Mean,
		TMBps:         r.TMBps,
	}
}

// RunExtGC sweeps stacks x over-provisioning x trim on the aged device.
func RunExtGC(sc Scale) Table {
	type spec struct {
		kind StackKind
		op   float64
		trim bool
	}
	var specs []spec
	for _, kind := range ExtGCStacks {
		for _, op := range ExtGCOPs {
			for _, trim := range []bool{false, true} {
				specs = append(specs, spec{kind, op, trim})
			}
		}
	}
	return extGCTable(RunCells(len(specs), func(i int) ExtGCCell {
		s := specs[i]
		return RunExtGCCell(s.kind, s.op, s.trim, sc)
	}))
}

// extGCTable renders the sweep's cells as rows plus the narration.
func extGCTable(cells []ExtGCCell) Table {
	t := Table{
		Title: "Extension: aged device with FTL garbage collection (4 L + 4 overwrite T)",
		Columns: []Column{
			{"stack", FmtText}, {"OP%", FmtF1}, {"trim", FmtText}, {"WA", FmtF2}, {"GC runs", FmtInt},
			{"GC p99 (ms)", FmtMs}, {"fg GC", FmtInt}, {"L p99.9 (ms)", FmtMs}, {"L avg (ms)", FmtMs}, {"T MB/s", FmtF1},
		},
		Notes: []string{
			"WA rises as over-provisioning shrinks; TRIM lowers WA by telling GC",
			"which pages are dead. GC inflates every stack's L-tail — device-internal",
			"interference no queue separation removes (§8.1) — but the stack ordering",
			"survives aging.",
		},
	}
	for _, c := range cells {
		trim := "off"
		if c.Trim {
			trim = "on"
		}
		t.Add(c.Kind, c.OPPct, trim, c.WA, c.GCRuns, c.GCPauseP99, c.ForegroundGCs, c.LTail, c.LAvg, c.TMBps)
	}
	return t
}
