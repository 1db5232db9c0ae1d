package harness

import (
	"reflect"
	"testing"

	"daredevil/internal/sim"
	"daredevil/internal/workload"
)

func smallSpec() CellSpec {
	return CellSpec{
		Machine: SVM(2),
		Kind:    DareFull,
		Warmup:  5 * sim.Millisecond,
		Measure: 20 * sim.Millisecond,
		Jobs: []workload.FIOConfig{
			workload.DefaultLTenant("db", 0),
			workload.DefaultTTenant("bg", 1),
		},
	}
}

// TestRunCellSpecDeterministic pins the library entry point: the same spec
// must produce identical results on every run — this is what lets ddserve
// treat a cache hit as indistinguishable from a fresh simulation.
func TestRunCellSpecDeterministic(t *testing.T) {
	a := RunCellSpec(smallSpec())
	b := RunCellSpec(smallSpec())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same spec, different results:\n%+v\nvs\n%+v", a, b)
	}
	if a.LTenantLatency.Count == 0 || a.TTenantLatency.Count == 0 {
		t.Fatalf("empty tenant distributions: %+v", a)
	}
}

// TestBuildCellArmsSurfaces checks spec switches reach the cell.
func TestBuildCellArmsSurfaces(t *testing.T) {
	spec := smallSpec()
	spec.Trace = true
	spec.MetricsWindow = sim.Millisecond
	spec.Breakdown = true
	cell := BuildCell(spec)
	if cell.Env.Obs == nil {
		t.Fatal("trace spec did not arm the observer")
	}
	if !cell.Breakdown {
		t.Fatal("breakdown flag lost")
	}
	res := cell.Run(spec.Warmup, spec.Measure)
	if res.LSubmissionWait.Count == 0 {
		t.Fatalf("breakdown run reported no submission waits: %+v", res.LSubmissionWait)
	}
	if !cell.Ran() {
		t.Fatal("Ran() false after Run")
	}
}

// TestCellRunTwicePanics pins the single-shot contract.
func TestCellRunTwicePanics(t *testing.T) {
	spec := smallSpec()
	cell := BuildCell(spec)
	cell.Run(spec.Warmup, spec.Measure)
	defer func() {
		if recover() == nil {
			t.Fatal("second Run did not panic")
		}
	}()
	cell.Run(spec.Warmup, spec.Measure)
}

// TestSeedShiftReachesAddedJobs checks that the mix's seed shift perturbs
// tenants added through Cell.AddJob and Mix.AddTL, not only AddL/AddT: two
// cells that differ only in the shift must draw different T streams.
func TestSeedShiftReachesAddedJobs(t *testing.T) {
	run := func(shift uint64) CellResult {
		cell := NewCell(SVM(2), Vanilla)
		cell.Mix.SeedShift = shift
		cell.AddJob(workload.DefaultLTenant("db", 0))
		for i := 0; i < 2; i++ {
			cfg := workload.DefaultTTenant("bg", i)
			cfg.Pattern = workload.Random
			cell.AddJob(cfg)
		}
		return cell.Run(5*sim.Millisecond, 20*sim.Millisecond)
	}
	a, b := run(0), run(7)
	if a.TTenantLatency.Count == 0 {
		t.Fatal("no T completions")
	}
	if reflect.DeepEqual(a.TTenantLatency, b.TTenantLatency) {
		t.Errorf("seed shift 7 left the AddJob T latency unchanged: %+v", a.TTenantLatency)
	}

	// TL-tenants stream sequentially, so the shift shows in their seed.
	mix := NewMix(NewEnv(SVM(2), Vanilla))
	mix.SeedShift = 7
	mix.AddTL(1, 0)
	if got, want := mix.TJobs[0].Cfg.Seed, workload.DefaultTTenant("fio-TL", 0).Seed+7; got != want {
		t.Errorf("AddTL seed = %d, want %d", got, want)
	}
}
