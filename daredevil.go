// Package daredevil is the public API of the Daredevil reproduction: a
// deterministic simulation of the Linux NVMe storage stack and of Daredevil
// (EuroSys '25), the storage stack that decouples static core→NQ bindings
// for flexible multi-tenancy control.
//
// The library simulates an entire machine — CPU cores, the NVMe controller
// with its submission/completion queues, a flash backend — and runs one of
// several storage stacks on it:
//
//   - StackVanilla: Linux blk-mq with static per-core queue bindings.
//   - StackBlkSwitch: blk-switch-style cross-core scheduling.
//   - StackStaticPart: FlashShare/D2FQ-style static per-class NQs.
//   - StackDaredevil (and its dare-base / dare-sched ablations): the
//     paper's contribution.
//
// A minimal session:
//
//	sim := daredevil.NewSimulation(daredevil.ServerMachine(4), daredevil.StackDaredevil)
//	sim.AddLTenants(4)
//	sim.AddTTenants(16)
//	res := sim.Run(100*daredevil.Millisecond, 500*daredevil.Millisecond)
//	fmt.Println(res.LTenantLatency.P999, res.TThroughputMBps)
//
// The full evaluation harness behind cmd/ddbench is reachable through the
// Experiment helpers.
package daredevil

import (
	"encoding/json"
	"fmt"
	"io"

	"daredevil/internal/block"
	"daredevil/internal/fault"
	"daredevil/internal/ftl"
	"daredevil/internal/harness"
	"daredevil/internal/sim"
	"daredevil/internal/stats"
	"daredevil/internal/workload"
)

// TenantClass is a tenant's ionice scheduling class.
type TenantClass = block.Class

// Tenant classes.
const (
	// ClassLatencySensitive marks L-tenants (real-time ionice).
	ClassLatencySensitive = block.ClassRT
	// ClassThroughputOriented marks T-tenants (best-effort ionice).
	ClassThroughputOriented = block.ClassBE
)

// Duration is virtual time in nanoseconds.
type Duration = sim.Duration

// Common durations.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// StackKind selects a storage-stack implementation.
type StackKind = harness.StackKind

// Available stacks.
const (
	StackVanilla    = harness.Vanilla
	StackBlkSwitch  = harness.BlkSwitch
	StackStaticPart = harness.StaticPart
	StackDareBase   = harness.DareBase
	StackDareSched  = harness.DareSched
	StackDaredevil  = harness.DareFull
)

// Machine describes the simulated testbed.
type Machine = harness.Machine

// ServerMachine returns the paper's SV-M testbed shape (PM1735-class SSD:
// 64 NSQs, 64 NCQs, depth 1024) with the given core count.
func ServerMachine(cores int) Machine { return harness.SVM(cores) }

// WorkstationMachine returns the paper's WS-M testbed shape (980Pro-class
// SSD: 128 NSQs over 24 NCQs, 8 cores).
func WorkstationMachine() Machine { return harness.WSM() }

// FTLConfig configures the optional page-mapped flash translation layer
// (garbage collection, wear leveling, TRIM). Assign one to Machine.FTL to
// run on an aged device; leave it nil for the default effective-latency
// flash model. Both modes are deterministic.
type FTLConfig = ftl.Config

// DefaultFTLConfig returns the paper-scale aged-device shape: a 4GiB
// device (128 dies x 128 blocks x 64 pages), 7% over-provisioning, greedy
// victim selection, preconditioned full and scrambled.
func DefaultFTLConfig() FTLConfig { return ftl.DefaultConfig() }

// FaultSchedule declares deterministic, seeded device faults (chip
// brownouts, controller hiccups, dropped/late CQEs, read-error ramps, grown
// bad blocks). Assign one to Machine.Fault to run under faults with host
// recovery armed; leave it nil for a healthy device.
type FaultSchedule = fault.Schedule

// FaultProfile names a canned fault schedule (see DefaultFaultSchedule).
type FaultProfile = harness.FaultProfile

// Canned fault profiles.
const (
	// FaultBrownout stalls a run of chips for the fault window.
	FaultBrownout = harness.FaultBrownout
	// FaultLossy drops and delays CQEs and pauses command fetch.
	FaultLossy = harness.FaultLossy
	// FaultWearout ramps the read error rate and fails programs.
	FaultWearout = harness.FaultWearout
)

// DefaultFaultSchedule builds the named profile with its fault window
// covering the second quarter of the measurement phase — onset, steady fault
// pressure, and post-window recovery all land inside measurement.
func DefaultFaultSchedule(profile FaultProfile, seed uint64, warmup, measure Duration) FaultSchedule {
	return harness.ExtFaultSchedule(profile, seed, warmup+measure/4, warmup+measure/2)
}

// RecoveryCounters aggregates error-path activity: device media errors, the
// timeout → abort → controller-reset ladder, host-side requeue verdicts, and
// injected fault hits. All zero on a healthy run.
type RecoveryCounters = harness.RecoveryCounters

// LatencySnapshot summarizes a latency distribution.
type LatencySnapshot = stats.Snapshot

// Result aggregates one measurement window: merged L-/T-tenant latency
// distributions, rates, CPU utilization, optional breakdown components and
// FTL activity, and the recovery counters. It aliases the harness cell
// result so library consumers (ddserve, the experiment grids) and this
// facade return the same typed value.
type Result = harness.CellResult

// FTLResult summarizes the translation layer's work during a measurement
// window.
type FTLResult = harness.FTLSummary

// JobConfig customizes a tenant workload (see DefaultLTenantConfig /
// DefaultTTenantConfig for the paper's shapes).
type JobConfig = workload.FIOConfig

// DefaultLTenantConfig is the paper's L-tenant: 4KB random reads, queue
// depth 1, real-time ionice.
func DefaultLTenantConfig(name string, core int) JobConfig {
	return workload.DefaultLTenant(name, core)
}

// DefaultTTenantConfig is the paper's T-tenant: 128KB streaming writes,
// queue depth 32, best-effort ionice.
func DefaultTTenantConfig(name string, core int) JobConfig {
	return workload.DefaultTTenant(name, core)
}

// Simulation is a configured machine + stack + tenant set — a facade over
// the harness cell API (harness.Cell) that adds the application workloads
// (YCSB-driven KV, mailserver).
type Simulation struct {
	cell *harness.Cell
	apps []app
}

// NewSimulation builds a simulated machine running the given stack.
func NewSimulation(m Machine, kind StackKind) *Simulation {
	return &Simulation{cell: harness.NewCell(m, kind)}
}

// StackName reports the active stack implementation's name.
func (s *Simulation) StackName() string { return s.cell.Env.Stack.Name() }

// CreateNamespaces divides the SSD into n namespaces (call before adding
// tenants that target them).
func (s *Simulation) CreateNamespaces(n int) { s.cell.Env.CreateNamespaces(n) }

// AddLTenants adds n paper-shaped L-tenants in namespace 0.
func (s *Simulation) AddLTenants(n int) { s.cell.Mix.AddL(n, 0) }

// AddTTenants adds n paper-shaped T-tenants in namespace 0.
func (s *Simulation) AddTTenants(n int) { s.cell.Mix.AddT(n, 0) }

// AddLTenantsNS / AddTTenantsNS place tenants in a specific namespace.
func (s *Simulation) AddLTenantsNS(n, ns int) { s.cell.Mix.AddL(n, ns) }

// AddTTenantsNS places n T-tenants in namespace ns.
func (s *Simulation) AddTTenantsNS(n, ns int) { s.cell.Mix.AddT(n, ns) }

// AddJob adds a fully custom tenant job.
func (s *Simulation) AddJob(cfg JobConfig) { s.cell.AddJob(cfg) }

// YCSBKind selects a YCSB workload mix (A, B, E, F).
type YCSBKind = workload.YCSBKind

// YCSB workload kinds.
const (
	YCSBA = workload.YCSBA
	YCSBB = workload.YCSBB
	YCSBE = workload.YCSBE
	YCSBF = workload.YCSBF
)

// OpType labels application operations.
type OpType = workload.OpType

// Application operation types.
const (
	OpRead   = workload.OpGet
	OpUpdate = workload.OpUpdate
	OpInsert = workload.OpInsert
	OpScan   = workload.OpScan
	OpRMW    = workload.OpRMW
	OpFsync  = workload.OpFsync
	OpDelete = workload.OpDelete
)

// KVApp is a RocksDB-like store driven by YCSB clients inside a Simulation.
type KVApp struct {
	kv      *workload.KV
	drivers []*workload.YCSB
}

// AddYCSB attaches a KV store (foreground on core, background flush thread
// on the next core) driven by the given number of YCSB clients. The app
// starts when Run is called.
func (s *Simulation) AddYCSB(kind YCSBKind, core, clients int) *KVApp {
	if clients <= 0 {
		panic("daredevil: AddYCSB needs at least one client")
	}
	cfg := workload.DefaultKVConfig("rocksdb", core)
	kv := workload.NewKV(5000+len(s.apps)*10, cfg)
	kv.BGTenant.Core = (core + 1) % s.cell.Env.Pool.N()
	app := &KVApp{kv: kv}
	for i := 0; i < clients; i++ {
		app.drivers = append(app.drivers, workload.NewYCSB(kind, kv, 71+uint64(i)))
	}
	s.apps = append(s.apps, app)
	return app
}

// OpLatency reports the latency distribution of one operation type since
// warmup.
func (a *KVApp) OpLatency(op OpType) LatencySnapshot {
	if h, ok := a.kv.OpLat[op]; ok {
		return h.Snapshot()
	}
	return LatencySnapshot{}
}

// Ops reports completed client operations.
func (a *KVApp) Ops() uint64 {
	var n uint64
	for _, d := range a.drivers {
		n += d.Ops
	}
	return n
}

func (a *KVApp) start(env *harness.Env) {
	a.kv.Start(env.Eng, env.Pool, env.Stack)
	for _, d := range a.drivers {
		d.Start(env.Eng)
	}
}

func (a *KVApp) reset() { a.kv.ResetStats() }

// MailApp is the Filebench-Mailserver workload inside a Simulation.
type MailApp struct {
	mail *workload.Mail
}

// AddMailserver attaches the mailserver workload on the given core.
func (s *Simulation) AddMailserver(core int) *MailApp {
	app := &MailApp{mail: workload.NewMail(6000+len(s.apps)*10, workload.DefaultMailConfig("mailserver", core))}
	s.apps = append(s.apps, app)
	return app
}

// OpLatency reports the latency distribution of one operation type since
// warmup (OpFsync, OpDelete, or workload.OpCache).
func (a *MailApp) OpLatency(op OpType) LatencySnapshot {
	if h, ok := a.mail.OpLat[op]; ok {
		return h.Snapshot()
	}
	return LatencySnapshot{}
}

func (a *MailApp) start(env *harness.Env) {
	a.mail.Start(env.Eng, env.Pool, env.Stack)
}

func (a *MailApp) reset() { a.mail.ResetStats() }

// app is anything startable inside a Simulation.
type app interface {
	start(*harness.Env)
	reset()
}

// auxApp adapts the unexported app interface to harness.AuxApp so apps ride
// inside the cell's run loop.
type auxApp struct{ a app }

func (x auxApp) Start(e *harness.Env) { x.a.start(e) }
func (x auxApp) Reset()               { x.a.reset() }

// SetSeedShift perturbs the random streams of every tenant added
// afterwards, for re-running an otherwise-identical experiment with fresh
// draws. Zero keeps the default streams.
func (s *Simulation) SetSeedShift(shift uint64) { s.cell.Mix.SeedShift = shift }

// EnableTrace collects per-request lifecycle spans for up to limit requests
// (a default budget when limit <= 0) and arms the flight recorder. Call
// before Run; after Run, Artifacts holds trace.json (Chrome trace-event
// JSON with one track per core, NSQ, chip, and GC die plus recovery
// instants — open it at ui.perfetto.dev), trace.txt (an aligned phase
// table: cpu+route, in-NSQ, device, delivery), and, when host recovery
// escalated, flight.txt (one block per timeout/abort/reset, the recent
// event stream of every component merged in deterministic order).
func (s *Simulation) EnableTrace(limit int) { s.cell.EnableTrace(limit) }

// EnableMetrics samples the machine's gauge set (queue depths, per-core
// busy/IRQ share, controller occupancy, FTL health, recovery deltas) every
// window of virtual time. Call before Run; after Run, Artifacts holds
// metrics.csv (first column window start in µs, one column per gauge) and
// metrics.svg (one sparkline per gauge).
func (s *Simulation) EnableMetrics(window Duration) {
	if window <= 0 {
		panic("daredevil: EnableMetrics needs a positive window")
	}
	s.cell.EnableMetrics(window)
}

// EnableProfile streams every completed request through the virtual-time
// profiler: per (tenant-class, layer) latency digests over the fixed
// submit / queue-wait / fetch / chip / gc / cqe / delivery taxonomy,
// covering the measurement window. Call before Run; after Run, Artifacts
// holds profile.txt (share, mean, p50/p99/p99.9, max per layer),
// profile.folded ("stack;class;layer ns", ready for flamegraph.pl or
// speedscope), profile.svg (stacked bars), and profile.json (mergeable
// digests); Result.Profile carries the same digests as data. Inspect
// host-side cost with WriteSelfProfile. Unlike EnableTrace there is no
// span budget — the profiler aggregates every request at O(1) memory.
func (s *Simulation) EnableProfile() { s.cell.EnableProfile() }

// Artifact is one named observability export of a run (trace.json,
// metrics.csv, profile.txt, ...); identical runs produce identical bytes.
type Artifact = harness.Artifact

// Artifacts renders, in a fixed order, every export the run armed with
// EnableTrace, EnableMetrics, and EnableProfile; it is empty when none was
// armed. Call after Run.
func (s *Simulation) Artifacts() ([]Artifact, error) { return s.cell.Artifacts() }

// WriteSelfProfile reports where the simulator spent host wall-clock time
// (build/warmup/measure/collect). No-op unless EnableProfile was called.
// It is not an artifact: its bytes differ from host to host.
func (s *Simulation) WriteSelfProfile(w io.Writer) error { return s.cell.WriteSelfProfile(w) }

// EnableBreakdown records per-request path components for L-tenants
// (submission-side lock wait, completion delivery delay, cross-core
// fraction), exposed through the Result. Call before Run.
func (s *Simulation) EnableBreakdown() { s.cell.Breakdown = true }

// Run starts every tenant, warms up, measures, and aggregates. It may be
// called once per Simulation.
func (s *Simulation) Run(warmup, measure Duration) Result {
	if s.cell.Ran() {
		panic("daredevil: Simulation.Run called twice; build a new Simulation")
	}
	s.cell.Aux = s.cell.Aux[:0]
	for _, a := range s.apps {
		s.cell.Aux = append(s.cell.Aux, auxApp{a})
	}
	return s.cell.Run(warmup, measure)
}

// SetParallelism sets how many experiment cells the harness runs
// concurrently (default GOMAXPROCS). Each cell owns its own engine, so
// results are identical at any setting. n < 1 panics; CLIs validate user
// input before calling.
func SetParallelism(n int) { harness.SetParallelism(n) }

// Parallelism reports the current experiment fan-out.
func Parallelism() int { return harness.Parallelism() }

// CompareStacks builds and runs one simulation per stack kind on the
// experiment worker pool and returns the results in kind order. run must
// build a fresh Simulation per call — cells share nothing, which is what
// makes the fan-out deterministic.
func CompareStacks(kinds []StackKind, run func(StackKind) Result) []Result {
	return harness.RunCells(len(kinds), func(i int) Result { return run(kinds[i]) })
}

// Scale controls experiment durations for RunExperiment.
type Scale = harness.Scale

// Predefined scales.
var (
	DefaultScale = harness.DefaultScale
	QuickScale   = harness.QuickScale
)

// ExperimentNames lists the reproducible paper artifacts plus the
// extension experiments (Kyber baseline, WRR arbitration, polled
// completion, §8.1 virtio, aged-device GC, fault injection).
func ExperimentNames() []string { return harness.ExperimentNames() }

// DefaultFaultSeed keys the ext-fault experiment's fault RNG stream.
const DefaultFaultSeed = harness.DefaultFaultSeed

// RunExperimentJSON regenerates one paper table/figure and returns its
// table as JSON ({name, title, columns, rows, notes}) — the programmatic
// counterpart of RunExperiment for consumers that post-process results.
func RunExperimentJSON(name string, sc Scale) ([]byte, error) {
	t, err := runExperiment(name, sc)
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(t, "", "  ")
}

// RunExperiment regenerates one paper table/figure, writing its rows to w.
func RunExperiment(w io.Writer, name string, sc Scale) error {
	t, err := runExperiment(name, sc)
	if err != nil {
		return err
	}
	t.WriteText(w)
	return nil
}

func runExperiment(name string, sc Scale) (harness.Table, error) {
	e, err := harness.FindExperiment(name)
	if err != nil {
		return harness.Table{}, fmt.Errorf("daredevil: %w", err)
	}
	return e.Table(sc), nil
}
