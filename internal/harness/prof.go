package harness

import (
	"fmt"

	"daredevil/internal/block"
	"daredevil/internal/ftl"
	"daredevil/internal/prof"
	"daredevil/internal/workload"
)

// The profiled comparison grid: every stack under the paper's L+T
// colocation at two T-tenant pressures, each cell streaming its request
// spans into per-layer digests. The per-cell profiles merge — in RunCells
// index-order assembly — into one fleet profile whose bytes are identical
// at any parallelism, the grid-level "where does the time go" view ddbench
// -prof exports and CI archives.

// ProfDemo is the profiled grid's export set.
type ProfDemo struct {
	// Cells counts the grid cells.
	Cells int
	// Merged is the fleet profile — every cell folded together.
	Merged prof.Profile
	// Artifacts renders Merged as profile.txt, profile.folded,
	// profile.svg and profile.json, then each cell's own profile under its
	// label (e.g. daredevil-2L2T.txt), in grid order.
	Artifacts []Artifact
}

// profGridSpecs is the demo grid: every stack crossed with two colocation
// shapes — a read-mostly 2L+2T mix on the plain SV-M, and a write-heavy
// 2L+4T mix on an aged FTL-backed SV-M so the fetch, chip, and
// GC-attributed layers all carry mass. Profiling armed throughout.
func profGridSpecs(sc Scale) []CellSpec {
	var specs []CellSpec
	for _, kind := range AllKinds {
		read := CellSpec{
			Machine: SVM(4),
			Kind:    kind,
			Warmup:  sc.Warmup,
			Measure: sc.Measure,
			Profile: true,
		}
		for i := 0; i < 2; i++ {
			read.Jobs = append(read.Jobs, workload.DefaultLTenant("fio-L", i%4))
		}
		for i := 0; i < 2; i++ {
			read.Jobs = append(read.Jobs, workload.DefaultTTenant("fio-T", i%4))
		}
		specs = append(specs, read)

		aged := CellSpec{
			Machine: SVM(4),
			Kind:    kind,
			Warmup:  sc.Warmup,
			Measure: sc.Measure,
			Profile: true,
		}
		fcfg := ftl.DefaultConfig()
		aged.Machine.FTL = &fcfg
		for i := 0; i < 2; i++ {
			aged.Jobs = append(aged.Jobs, workload.DefaultLTenant("fio-L", i%4))
		}
		for i := 0; i < 4; i++ {
			cfg := workload.DefaultTTenant("fio-T", i%4)
			cfg.Pattern = workload.Random
			cfg.ReadPct = 0
			cfg.IODepth = 4
			aged.Jobs = append(aged.Jobs, cfg)
		}
		specs = append(specs, aged)
	}
	return specs
}

// profCellLabel names one grid cell from its spec.
func profCellLabel(spec CellSpec) string {
	l, t := 0, 0
	for _, j := range spec.Jobs {
		if j.Class == block.ClassRT {
			l++
		} else {
			t++
		}
	}
	return fmt.Sprintf("%s-%dL%dT", spec.Kind, l, t)
}

// RunProfDemo runs the profiled comparison grid at the given scale and
// returns the merged and per-cell artifacts. Cells fan out over the default
// runner; results and the merged profile are assembled in grid index
// order, and the digest merge is order-independent, so every byte of the
// output is identical at any SetParallelism width.
func RunProfDemo(sc Scale) (ProfDemo, error) {
	specs := profGridSpecs(sc)
	results := RunCells(len(specs), func(i int) CellResult { return RunCellSpec(specs[i]) })
	d := ProfDemo{Cells: len(specs)}
	d.Merged, _ = MergeCellProfiles(results)
	rs := profileRenders(profileStem, d.Merged)
	for i, res := range results {
		if res.Profile == nil {
			return d, fmt.Errorf("harness: profiled cell %s returned no profile", profCellLabel(specs[i]))
		}
		rs = append(rs, profileRenders(profCellLabel(specs[i]), *res.Profile)...)
	}
	var err error
	d.Artifacts, err = renderAll(rs)
	return d, err
}
