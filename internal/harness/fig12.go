package harness

import (
	"daredevil/internal/plot"
	"daredevil/internal/sim"
	"daredevil/internal/workload"
)

// ycsbHeadlineOps maps the YCSB kind to the op types Figure 12 plots, in
// row order.
var ycsbHeadlineOps = map[workload.YCSBKind][]workload.OpType{
	workload.YCSBA: {workload.OpUpdate, workload.OpGet},
	workload.YCSBB: {workload.OpUpdate, workload.OpGet},
	workload.YCSBE: {workload.OpInsert, workload.OpScan},
	workload.YCSBF: {workload.OpGet, workload.OpRMW},
}

// fig12Workloads are the applications in plotting order.
var fig12Workloads = []string{"YCSB-A", "YCSB-B", "YCSB-E", "YCSB-F", "Mailserver"}

// RunFig12 reproduces Figure 12, real-world applicability: RocksDB under
// YCSB and Filebench Mailserver, co-located with 8 streaming T-tenants on 4
// cores, on every comparison stack. One row per (application, stack, op)
// gives the op's latency (p99.9 for YCSB, the paper's Figures 12a-d; mean
// for Mailserver, 12e) and the application operations completed in the
// window.
func RunFig12(sc Scale) Table {
	type spec struct {
		kind StackKind
		ycsb workload.YCSBKind
		mail bool
	}
	var specs []spec
	for _, kind := range ComparisonKinds {
		for _, ycsbKind := range []workload.YCSBKind{workload.YCSBA, workload.YCSBB, workload.YCSBE, workload.YCSBF} {
			specs = append(specs, spec{kind: kind, ycsb: ycsbKind})
		}
		specs = append(specs, spec{kind: kind, mail: true})
	}
	t := Table{Title: "Figure 12: real-world workloads (YCSB p99.9, Mailserver mean; ms)", Columns: []Column{
		{"workload", FmtText}, {"stack", FmtText}, {"op", FmtText}, {"latency (ms)", FmtMs}, {"ops", FmtInt},
	}}
	for _, rows := range RunCells(len(specs), func(i int) [][]any {
		s := specs[i]
		if s.mail {
			return runMailCell(s.kind, sc)
		}
		return runYCSBCell(s.kind, s.ycsb, sc)
	}) {
		for _, row := range rows {
			t.Add(row...)
		}
	}
	return t
}

// withBackgroundT adds the §7.4 background pressure: 8 streaming T-tenants.
func withBackgroundT(env *Env) *Mix {
	mix := NewMix(env)
	mix.AddT(8, 0)
	mix.StartAll()
	return mix
}

func runYCSBCell(kind StackKind, ycsbKind workload.YCSBKind, sc Scale) [][]any {
	env := NewEnv(SVM(4), kind)
	withBackgroundT(env)
	kvCfg := workload.DefaultKVConfig("rocksdb", 0)
	kv := workload.NewKV(1000, kvCfg)
	kv.BGTenant.Core = 1
	kv.Start(env.Eng, env.Pool, env.Stack)
	// Four closed-loop clients, like YCSB's client threads.
	var drivers []*workload.YCSB
	for i := 0; i < 4; i++ {
		d := workload.NewYCSB(ycsbKind, kv, 42+uint64(i))
		d.Start(env.Eng)
		drivers = append(drivers, d)
	}
	env.Eng.RunUntil(sim.Time(sc.Warmup))
	kv.ResetStats()
	var opsBefore uint64
	for _, d := range drivers {
		opsBefore += d.Ops
	}
	env.Eng.RunUntil(sim.Time(sc.Warmup + sc.Measure))
	var opsAfter uint64
	for _, d := range drivers {
		opsAfter += d.Ops
	}
	var rows [][]any
	for _, op := range ycsbHeadlineOps[ycsbKind] {
		rows = append(rows, []any{"YCSB-" + string(ycsbKind), kind, string(op),
			kv.OpLat[op].Quantile(0.999), opsAfter - opsBefore})
	}
	return rows
}

func runMailCell(kind StackKind, sc Scale) [][]any {
	env := NewEnv(SVM(4), kind)
	withBackgroundT(env)
	mail := workload.NewMail(2000, workload.DefaultMailConfig("mailserver", 0))
	mail.Start(env.Eng, env.Pool, env.Stack)
	env.Eng.RunUntil(sim.Time(sc.Warmup))
	mail.ResetStats()
	opsBefore := mail.Ops
	env.Eng.RunUntil(sim.Time(sc.Warmup + sc.Measure))
	ops := mail.Ops - opsBefore
	return [][]any{
		{"Mailserver", kind, string(workload.OpFsync), mail.OpLat[workload.OpFsync].Mean(), ops},
		{"Mailserver", kind, string(workload.OpDelete), mail.OpLat[workload.OpDelete].Mean(), ops},
	}
}

// fig12Chart draws bars of each application's headline op.
func fig12Chart(t Table) *plot.Chart {
	headline := map[string]workload.OpType{
		"YCSB-A": workload.OpUpdate, "YCSB-B": workload.OpGet,
		"YCSB-E": workload.OpScan, "YCSB-F": workload.OpRMW,
		"Mailserver": workload.OpFsync,
	}
	c := &plot.Chart{
		Title:  "Figure 12: real-world workloads (headline op latency)",
		XLabel: "workload", YLabel: "latency (ms, log)",
		Kind: plot.Bars, LogY: true, Categories: fig12Workloads,
	}
	for _, kind := range ComparisonKinds {
		var y []float64
		for _, wl := range fig12Workloads {
			r, ok := t.Row(wl, kind, string(headline[wl]))
			y = append(y, msOrZero(r, ok, "latency (ms)"))
		}
		c.Series = append(c.Series, plot.Series{Name: string(kind), Y: y})
	}
	return c
}
