package harness

import (
	"daredevil/internal/block"
	"daredevil/internal/kyber"
	"daredevil/internal/nvme"
	"daredevil/internal/sim"
	"daredevil/internal/stackbase"
	"daredevil/internal/stats"
	"daredevil/internal/virtio"
	"daredevil/internal/workload"
)

// This file holds the extension experiments that go beyond the paper's
// evaluation: the Kyber-style I/O scheduler baseline (§9 related work), the
// NVMe WRR arbitration ablation (§2.1 sidesteps it), polled completion
// (§2.1 focuses on interrupts), and the §8.1 VM/virtio future-work design.

// Kyber is the I/O-scheduler baseline stack kind (extension).
const Kyber StackKind = "kyber"

func init() {
	// Make the extension stack constructible through the normal path.
	extraStacks[Kyber] = func(env stackbase.Env) block.Stack {
		return kyber.New(env, kyber.DefaultConfig())
	}
}

// RunExtSchedulers compares vanilla, the Kyber-style scheduler, and
// Daredevil under rising T-pressure: an I/O scheduler on blk-mq can restore
// L-latency only by throttling T-requests before the NQs, paying with
// device utilization.
func RunExtSchedulers(sc Scale) Table {
	kinds := []StackKind{Vanilla, Kyber, DareFull}
	counts := []int{4, 16, 32}
	t := Table{Title: "Extension: I/O schedulers on blk-mq vs Daredevil", Columns: []Column{
		{"stack", FmtText}, {"T-tenants", FmtInt}, {"tail p99.9 (ms)", FmtMs}, {"avg (ms)", FmtMs}, {"T MB/s", FmtF1},
	}}
	grid := RunMixGrid(SVM(4), kinds, 4, counts, sc)
	for ki, kind := range kinds {
		for ti, n := range counts {
			r := grid[ki*len(counts)+ti]
			tail, avg := lLatency(r)
			t.Add(kind, n, tail, avg, r.TMBps)
		}
	}
	return t
}

// RunExtWRR runs Daredevil on round-robin and WRR controllers. It
// quantifies what Daredevil gains when the controller arbitration
// cooperates: with WRR, high-class (L) NSQs are also fetched
// preferentially, shaving the fetch-side share of HOL delay.
func RunExtWRR(sc Scale) Table {
	t := Table{Title: "Extension: Daredevil under NVMe controller arbitration modes", Columns: []Column{
		{"arbitration", FmtText}, {"T-tenants", FmtInt}, {"tail p99.9 (ms)", FmtMs}, {"avg (ms)", FmtMs}, {"T MB/s", FmtF1},
	}}
	for _, wrr := range []bool{false, true} {
		m := SVM(4)
		name := "round-robin"
		if wrr {
			m.NVMe.Arbitration = nvme.ArbWeightedRoundRobin
			name = "weighted-rr"
		}
		for _, n := range []int{16, 32} {
			r := RunMixOnce(m, DareFull, 4, n, sc)
			t.Add(name, n, r.L.P999, r.L.Mean, r.TMBps)
		}
	}
	return t
}

// RunExtPolling contrasts interrupt-driven completion with polling the
// high-priority NCQs — the latency/CPU trade the paper scopes out (§2.1):
// Daredevil with interrupts, then with 2µs polling on the high-priority
// NCQs. The workload is L-only: polling's µs-scale win is visible only
// when the device floor is µs-scale (under T-pressure the ms-scale flash
// backlog hides it — which is itself a finding).
func RunExtPolling(sc Scale) Table {
	t := Table{Title: "Extension: interrupt vs polled completion for L-tenants (Daredevil, 4 L-tenants)", Columns: []Column{
		{"completion", FmtText}, {"tail p99.9 (µs)", FmtUs}, {"avg (µs)", FmtUs}, {"CPU util", FmtF2},
	}}
	for _, poll := range []bool{false, true} {
		env := NewEnv(SVM(4), DareFull)
		if poll {
			half := env.Dev.NumNCQ() / 2
			for i := 0; i < half; i++ {
				env.Dev.NCQOf(i).EnablePolling(2 * sim.Microsecond)
			}
		}
		mix := NewMix(env)
		mix.AddL(4, 0)
		mix.StartAll()
		env.Eng.RunUntil(sim.Time(sc.Warmup))
		mix.ResetStats()
		env.Eng.RunUntil(sim.Time(sc.Warmup + sc.Measure))
		r := mix.Collect(sc.Measure)
		mode := "interrupts"
		if poll {
			mode = "polled-high-NCQs"
		}
		t.Add(mode, r.L.P999, r.L.Mean, r.CPUUtil)
	}
	return t
}

// RunExtVirtio evaluates the §8.1 VM design — only a decoupled guest on a
// Daredevil host keeps guest L-requests separated end-to-end — by running
// 2 guest L-tenants + 8 guest T-tenants through a VM on each (guest mode,
// host stack) combination and reporting guest L-tenant latency.
func RunExtVirtio(sc Scale) Table {
	t := Table{Title: "Extension (§8.1): guest L-tenant latency across virtio designs (2 guest L + 8 guest T)", Columns: []Column{
		{"guest virtio", FmtText}, {"host stack", FmtText}, {"tail p99.9 (ms)", FmtMs}, {"avg (ms)", FmtMs},
	}}
	combos := []struct {
		mode virtio.GuestMode
		host StackKind
	}{
		{virtio.GuestMixed, Vanilla},
		{virtio.GuestMixed, DareFull},
		{virtio.GuestDecoupled, DareFull},
	}
	for _, cb := range combos {
		env := NewEnv(SVM(4), cb.host)
		vm := virtio.New(env.Eng, env.Pool, env.Stack, virtio.DefaultConfig(cb.mode, 4))
		// Guest tenants drive the VM as their "stack".
		var lJobs, tJobs []*workload.Job
		for i := 0; i < 2; i++ {
			j := workload.NewJob(100+i, workload.DefaultLTenant("guest-L", i%4))
			lJobs = append(lJobs, j)
			j.Start(env.Eng, env.Pool, vm)
		}
		for i := 0; i < 8; i++ {
			j := workload.NewJob(200+i, workload.DefaultTTenant("guest-T", i%4))
			tJobs = append(tJobs, j)
			j.Start(env.Eng, env.Pool, vm)
		}
		env.Eng.RunUntil(sim.Time(sc.Warmup))
		for _, j := range append(lJobs, tJobs...) {
			j.ResetStats()
		}
		env.Eng.RunUntil(sim.Time(sc.Warmup + sc.Measure))
		var lat stats.Histogram
		for _, j := range lJobs {
			lat.Merge(&j.Lat)
		}
		t.Add(cb.mode.String(), cb.host, lat.Quantile(0.999), lat.Mean())
	}
	return t
}

// extraStacks lets extension stacks register additional kinds without
// touching buildStack's core switch.
var extraStacks = map[StackKind]func(stackbase.Env) block.Stack{}
