package harness

import (
	"fmt"

	"daredevil/internal/block"
)

// RunTable1 reproduces Table 1: the design-factor comparison between
// Daredevil and prior works, collected from every stack implementation.
func RunTable1() Table {
	kinds := []StackKind{Vanilla, StaticPart, BlkSwitch, DareFull}
	t := Table{Title: "Table 1: design-factor comparison", Columns: []Column{
		{"target", FmtText}, {"F1 hw-independent", FmtText}, {"F2 NQ exploitation", FmtText},
		{"F3 cross-core autonomy", FmtText}, {"F4 multi-namespace", FmtText},
	}}
	for i, f := range RunCells(len(kinds), func(i int) block.Factors {
		env := NewEnv(SVM(4), kinds[i])
		fp, ok := env.Stack.(block.FactorProvider)
		if !ok {
			panic(fmt.Sprintf("harness: stack %q does not report factors", kinds[i]))
		}
		return fp.Factors()
	}) {
		t.Add(kinds[i], mark(f.HardwareIndependence), mark(f.NQExploitation),
			mark(f.CrossCoreAutonomy), mark(f.MultiNamespace))
	}
	return t
}

func mark(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
