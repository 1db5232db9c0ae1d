// Command ddsim runs a single custom multi-tenant scenario on a chosen
// storage stack and prints the aggregate results — a quick way to poke at
// the simulator without the full experiment harness.
//
// Example:
//
//	ddsim -stack daredevil -l 4 -t 16 -cores 4 -measure 500ms
//	ddsim -stack vanilla -l 4 -t 16 -namespaces 4
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"daredevil"
)

func main() {
	stack := flag.String("stack", "daredevil", "storage stack: vanilla | blk-switch | static-part | dare-base | dare-sched | daredevil")
	compare := flag.Bool("compare", false, "run the scenario on every stack concurrently and print a comparison (ignores -stack; cannot be combined with -breakdown, -trace, -obs-window-us, or -prof)")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "parallel simulations with -compare")
	cores := flag.Int("cores", 4, "CPU cores")
	nL := flag.Int("l", 4, "L-tenants (4KB rand qd=1, real-time ionice)")
	nT := flag.Int("t", 8, "T-tenants (128KB qd=32, best-effort ionice)")
	namespaces := flag.Int("namespaces", 1, "NVMe namespaces (tenants spread round-robin)")
	workstation := flag.Bool("wsm", false, "use the WS-M testbed (8 cores, 128 NSQs / 24 NCQs)")
	warmup := flag.Duration("warmup", 100*time.Millisecond, "warmup window (virtual)")
	measure := flag.Duration("measure", 400*time.Millisecond, "measurement window (virtual)")
	breakdown := flag.Bool("breakdown", false, "report L-tenant path components (lock wait, completion delay, cross-core)")
	tracePath := flag.String("trace", "", "write request lifecycle spans as Chrome trace-event JSON to this file (open at ui.perfetto.dev)")
	traceLimit := flag.Int("trace-limit", 0, "cap the spans captured with -trace (0 = default budget)")
	obsWindowUs := flag.Int("obs-window-us", 0, "sample queue/CPU/FTL/recovery gauges every N virtual microseconds and print the CSV after the summary")
	profPath := flag.String("prof", "", "profile every request's virtual time by stack layer: print the breakdown table and host self-profile, write the mergeable profile JSON to this file")
	config := flag.String("config", "", "run a JSON scenario file instead of the flag-built mix")
	seed := flag.Uint64("seed", 0, "shift every tenant's random stream (0 = default streams)")
	errorRate := flag.Float64("error-rate", 0, "inject per-command media errors with this probability (controller retries up to 3x)")
	useFTL := flag.Bool("ftl", false, "run on an aged device with the page-mapped FTL (garbage collection, wear leveling)")
	opPct := flag.Float64("op", 7, "FTL over-provisioning percent (with -ftl)")
	trimEvery := flag.Int("trim", 0, "replace every Nth T-tenant request with an NVMe Deallocate (TRIM); 0 disables")
	faultProfile := flag.String("fault", "", "inject faults: brownout | lossy | wearout (window covers the 2nd quarter of -measure; arms host timeout/abort/reset recovery; wearout grows bad blocks only with -ftl)")
	faultSeed := flag.Uint64("fault-seed", 42, "seed for the dedicated fault RNG stream (with -fault)")
	flag.Parse()

	if *jobs < 1 {
		fmt.Fprintf(os.Stderr, "ddsim: -j must be at least 1 (got %d)\n", *jobs)
		os.Exit(2)
	}
	daredevil.SetParallelism(*jobs)

	if *config != "" {
		if err := runConfig(*config, *breakdown, *tracePath, *traceLimit, *obsWindowUs, *profPath); err != nil {
			fmt.Fprintln(os.Stderr, "ddsim:", err)
			os.Exit(1)
		}
		return
	}

	warm := daredevil.Duration(warmup.Nanoseconds())
	meas := daredevil.Duration(measure.Nanoseconds())

	var m daredevil.Machine
	if *workstation {
		m = daredevil.WorkstationMachine()
	} else {
		m = daredevil.ServerMachine(*cores)
	}
	if *errorRate > 0 {
		m.NVMe.MediaErrorRate = *errorRate
	}
	if *useFTL {
		fcfg := daredevil.DefaultFTLConfig()
		fcfg.OPPct = *opPct
		if err := fcfg.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, "ddsim:", err)
			os.Exit(2)
		}
		m.FTL = &fcfg
	}
	if *faultProfile != "" {
		switch daredevil.FaultProfile(*faultProfile) {
		case daredevil.FaultBrownout, daredevil.FaultLossy, daredevil.FaultWearout:
		default:
			fmt.Fprintf(os.Stderr, "ddsim: unknown fault profile %q (want brownout, lossy, or wearout)\n", *faultProfile)
			os.Exit(2)
		}
		fs := daredevil.DefaultFaultSchedule(daredevil.FaultProfile(*faultProfile), *faultSeed, warm, meas)
		m.Fault = &fs
		// A quarter of the measurement phase keeps expiry well above the
		// device's legitimate tail under load — a too-short timeout turns
		// queueing into false aborts and reset storms, exactly as in Linux.
		m.NVMe.CmdTimeout = meas / 4
	}
	build := func(kind daredevil.StackKind) *daredevil.Simulation {
		sim := daredevil.NewSimulation(m, kind)
		sim.SetSeedShift(*seed)
		if *namespaces > 1 {
			sim.CreateNamespaces(*namespaces)
			for i := 0; i < *nL; i++ {
				sim.AddLTenantsNS(1, i%*namespaces)
			}
			for i := 0; i < *nT; i++ {
				sim.AddTTenantsNS(1, i%*namespaces)
			}
		} else if *trimEvery > 0 {
			sim.AddLTenants(*nL)
			for i := 0; i < *nT; i++ {
				cfg := daredevil.DefaultTTenantConfig("fio-T", i%m.Cores)
				cfg.TrimEvery = *trimEvery
				sim.AddJob(cfg)
			}
		} else {
			sim.AddLTenants(*nL)
			sim.AddTTenants(*nT)
		}
		return sim
	}

	if *compare {
		if err := checkCompare(flag.CommandLine); err != nil {
			fmt.Fprintln(os.Stderr, "ddsim:", err)
			os.Exit(2)
		}
		runCompare(build, warm, meas, *nL, *nT, m.Cores, *namespaces, *measure)
		return
	}

	kind, err := parseStack(*stack)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ddsim:", err)
		os.Exit(2)
	}

	sim := build(kind)
	if *breakdown {
		sim.EnableBreakdown()
	}
	if *tracePath != "" {
		sim.EnableTrace(*traceLimit)
	}
	if *obsWindowUs > 0 {
		sim.EnableMetrics(daredevil.Duration(*obsWindowUs) * daredevil.Microsecond)
	}
	if *profPath != "" {
		sim.EnableProfile()
	}

	res := sim.Run(warm, meas)
	fmt.Printf("stack=%s cores=%d L=%d T=%d namespaces=%d (measured %v virtual)\n",
		sim.StackName(), m.Cores, *nL, *nT, *namespaces, *measure)
	fmt.Printf("  L-tenants: avg=%v p99=%v p99.9=%v max=%v (%.2f kIOPS, %d ops)\n",
		res.LTenantLatency.Mean, res.LTenantLatency.P99, res.LTenantLatency.P999,
		res.LTenantLatency.Max, res.LTenantKIOPS, res.LTenantLatency.Count)
	fmt.Printf("  T-tenants: avg=%v p99=%v (%.0f MB/s, %d ops)\n",
		res.TTenantLatency.Mean, res.TTenantLatency.P99,
		res.TThroughputMBps, res.TTenantLatency.Count)
	fmt.Printf("  CPU utilization: %.1f%%\n", 100*res.CPUUtilization)
	printFTL(res)
	printRecovery(res)
	if *breakdown {
		fmt.Printf("  L path components: lock-wait avg=%v p99=%v | completion-delay avg=%v p99=%v | cross-core %.0f%%\n",
			res.LSubmissionWait.Mean, res.LSubmissionWait.P99,
			res.LCompletionDelay.Mean, res.LCompletionDelay.P99,
			100*res.LCrossCoreFraction)
	}
	if err := writeObsOutputs(sim, *tracePath, *profPath); err != nil {
		fmt.Fprintln(os.Stderr, "ddsim:", err)
		os.Exit(1)
	}
}

// writeObsOutputs routes the run's artifacts by name: the layer-latency
// breakdown (profile.txt) and the host self-profile to stdout with the
// mergeable profile.json written to profPath, trace.json written to
// tracePath, the sampled-gauge metrics.csv to stdout, and — whenever host
// recovery escalated — the flight-recorder dumps (flight.txt) to stdout.
func writeObsOutputs(sim *daredevil.Simulation, tracePath, profPath string) error {
	arts, err := sim.Artifacts()
	if err != nil {
		return err
	}
	byName := make(map[string][]byte, len(arts))
	for _, a := range arts {
		byName[a.Name] = a.Data
	}
	if table, ok := byName["profile.txt"]; ok {
		fmt.Println()
		if _, err := os.Stdout.Write(table); err != nil {
			return err
		}
		fmt.Println()
		if err := sim.WriteSelfProfile(os.Stdout); err != nil {
			return err
		}
		if err := os.WriteFile(profPath, byName["profile.json"], 0o644); err != nil {
			return err
		}
		fmt.Printf("  profile: wrote %s (merge with other runs via prof.Merge)\n", profPath)
	}
	if trace, ok := byName["trace.json"]; ok {
		if err := os.WriteFile(tracePath, trace, 0o644); err != nil {
			return err
		}
		fmt.Printf("  trace: wrote %s (open at ui.perfetto.dev)\n", tracePath)
	}
	for _, name := range []string{"metrics.csv", "flight.txt"} {
		if data, ok := byName[name]; ok {
			fmt.Println()
			if _, err := os.Stdout.Write(data); err != nil {
				return err
			}
		}
	}
	return nil
}

// compareExcludes lists the flags -compare cannot honour: it prints one
// summary line per stack, so there is no single run for a breakdown,
// trace, gauge series, or profile to describe.
var compareExcludes = []string{"breakdown", "trace", "obs-window-us", "prof"}

// checkCompare rejects a -compare run that also sets a flag it would
// otherwise silently ignore.
func checkCompare(fs *flag.FlagSet) error {
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, name := range compareExcludes {
		if set[name] {
			return fmt.Errorf("-%s cannot be combined with -compare", name)
		}
	}
	return nil
}

// allStacks is the -compare sweep order.
var allStacks = []daredevil.StackKind{
	daredevil.StackVanilla, daredevil.StackBlkSwitch, daredevil.StackStaticPart,
	daredevil.StackDareBase, daredevil.StackDareSched, daredevil.StackDaredevil,
}

// runCompare runs the flag-built scenario on every stack via the harness
// worker pool and prints one summary line per stack. Each stack gets its
// own freshly built simulation, so the concurrent runs cannot interact.
func runCompare(build func(daredevil.StackKind) *daredevil.Simulation,
	warm, meas daredevil.Duration, nL, nT, cores, namespaces int, measured time.Duration) {
	results := daredevil.CompareStacks(allStacks, func(kind daredevil.StackKind) daredevil.Result {
		return build(kind).Run(warm, meas)
	})
	fmt.Printf("comparison: cores=%d L=%d T=%d namespaces=%d -j %d (measured %v virtual)\n",
		cores, nL, nT, namespaces, daredevil.Parallelism(), measured)
	fmt.Printf("  %-12s %12s %12s %12s %10s %10s %8s\n",
		"stack", "L avg", "L p99", "L p99.9", "L kIOPS", "T MB/s", "CPU")
	for i, kind := range allStacks {
		r := results[i]
		fmt.Printf("  %-12s %12v %12v %12v %10.2f %10.0f %7.1f%%\n",
			string(kind), r.LTenantLatency.Mean, r.LTenantLatency.P99,
			r.LTenantLatency.P999, r.LTenantKIOPS, r.TThroughputMBps,
			100*r.CPUUtilization)
	}
}

// runConfig executes a JSON scenario file. Observability comes from either
// side: the scenario's trace/traceLimit/obsWindowUs fields arm the surfaces,
// and the -trace / -trace-limit / -obs-window-us flags add to or override
// them (the flag path wins for the trace output file; a scenario that set
// "trace": true without a -trace flag writes next to the scenario file).
func runConfig(path string, breakdown bool, tracePath string, traceLimit, obsWindowUs int, profPath string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	sc, err := daredevil.ParseScenario(data)
	if err != nil {
		return err
	}
	sim, warm, measure, err := daredevil.BuildScenario(sc)
	if err != nil {
		return err
	}
	if breakdown {
		sim.EnableBreakdown()
	}
	if tracePath != "" {
		sim.EnableTrace(traceLimit)
	} else if sc.Trace {
		tracePath = strings.TrimSuffix(path, ".json") + ".trace.json"
	}
	if obsWindowUs > 0 {
		sim.EnableMetrics(daredevil.Duration(obsWindowUs) * daredevil.Microsecond)
	}
	if profPath != "" {
		sim.EnableProfile()
	} else if sc.Profile {
		profPath = strings.TrimSuffix(path, ".json") + ".profile.json"
	}
	res := sim.Run(warm, measure)
	fmt.Printf("scenario %s: stack=%s (measured %v virtual)\n", path, sim.StackName(), measure)
	fmt.Printf("  L-tenants: avg=%v p99=%v p99.9=%v (%.2f kIOPS, %d ops)\n",
		res.LTenantLatency.Mean, res.LTenantLatency.P99, res.LTenantLatency.P999,
		res.LTenantKIOPS, res.LTenantLatency.Count)
	fmt.Printf("  T-tenants: avg=%v p99=%v (%.0f MB/s, %d ops)\n",
		res.TTenantLatency.Mean, res.TTenantLatency.P99,
		res.TThroughputMBps, res.TTenantLatency.Count)
	fmt.Printf("  CPU utilization: %.1f%%\n", 100*res.CPUUtilization)
	printFTL(res)
	printRecovery(res)
	if breakdown {
		fmt.Printf("  L path components: lock-wait avg=%v | completion-delay avg=%v | cross-core %.0f%%\n",
			res.LSubmissionWait.Mean, res.LCompletionDelay.Mean, 100*res.LCrossCoreFraction)
	}
	return writeObsOutputs(sim, tracePath, profPath)
}

// printFTL reports device-internal GC activity when the run used -ftl (or
// a scenario with "ftl": true).
func printFTL(res daredevil.Result) {
	f := res.FTL
	if f == nil {
		return
	}
	fmt.Printf("  FTL: WA=%.2f GC runs=%d (moved %d pages, %d erases, %d foreground) trimmed=%d\n",
		f.WriteAmplification, f.GCRuns, f.GCPagesMoved, f.Erases, f.ForegroundGCs, f.TrimmedPages)
	if f.GCPauses.Count > 0 {
		fmt.Printf("  GC pauses: avg=%v p99=%v max=%v\n", f.GCPauses.Mean, f.GCPauses.P99, f.GCPauses.Max)
	}
}

// printRecovery reports error-path activity (media errors, the
// timeout/abort/reset ladder, host requeues, injected faults) when any
// occurred.
func printRecovery(res daredevil.Result) {
	r := res.Recovery
	if r == (daredevil.RecoveryCounters{}) {
		return
	}
	fmt.Printf("  recovery: media-errors=%d failed-cmds=%d timeouts=%d aborts=%d (races=%d escalated=%d) resets=%d cancelled=%d\n",
		r.MediaErrors, r.FailedCommands, r.Timeouts, r.Aborts, r.AbortRaces, r.AbortFails, r.Resets, r.CancelledCmds)
	fmt.Printf("  host: nsq-retries=%d requeued=%d terminal-failures=%d | injected: stalls=%d dropped-cqe=%d late-cqe=%d read-errs=%d prog-fails=%d\n",
		r.RetryAttempts, r.CancelRequeues, r.TerminalFailures,
		r.Faults.StallLosses, r.Faults.DroppedCQEs, r.Faults.LateCQEs,
		r.Faults.InjectedReadErrors, r.Faults.ProgramFailures)
}

func parseStack(s string) (daredevil.StackKind, error) {
	for _, k := range []daredevil.StackKind{
		daredevil.StackVanilla, daredevil.StackBlkSwitch, daredevil.StackStaticPart,
		daredevil.StackDareBase, daredevil.StackDareSched, daredevil.StackDaredevil,
	} {
		if string(k) == s {
			return k, nil
		}
	}
	return "", fmt.Errorf("unknown stack %q", s)
}
