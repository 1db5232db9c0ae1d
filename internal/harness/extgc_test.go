package harness

import (
	"bytes"
	"strings"
	"testing"

	"daredevil/internal/sim"
)

// TestExtGCDeterminism is the aged-path determinism invariant: two identical
// aged-device runs (same stack, OP, trim, windows) must produce bit-identical
// write amplification, GC accounting, GC-pause p99, and L-tenant tail — the
// FTL adds no hidden nondeterminism (map iteration, wall clock) to the
// simulation. Runs on both ends of the stack spectrum so the GC event chains
// interleave with both interrupt- and NQ-driven completion paths.
func TestExtGCDeterminism(t *testing.T) {
	// Long enough for full GC rounds to complete in the measure window, so
	// the comparison covers live pause samples, not just zeros.
	sc := Scale{Warmup: 60 * sim.Millisecond, Measure: 300 * sim.Millisecond}
	for _, kind := range []StackKind{Vanilla, DareFull} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			a := RunExtGCCell(kind, 7, true, sc)
			b := RunExtGCCell(kind, 7, true, sc)
			if a != b {
				t.Fatalf("aged-device runs differ:\n%+v\n%+v", a, b)
			}
			if a.WA <= 1.0 {
				t.Fatalf("WA = %v, want > 1 on an aged device under overwrite churn", a.WA)
			}
			if a.GCRuns == 0 || a.GCPauseP99 == 0 {
				t.Fatalf("no completed GC rounds in the measure window: %+v", a)
			}
			if a.TrimmedPages == 0 {
				t.Fatal("trim-enabled cell recorded no trimmed pages")
			}
		})
	}
}

// TestExtGCShapes asserts the experiment's qualitative claims: WA falls as
// over-provisioning grows, TRIM lowers WA at every OP level, GC actually
// runs, and the stack ordering survives aging (Daredevil's L-tail stays
// below vanilla's even with the device collecting underneath). It runs at
// DefaultScale — shorter windows (expScale) end before the 4 GiB device's GC
// rounds cycle, and the WA/TRIM separation only emerges in steady state.
func TestExtGCShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment shapes are slow")
	}
	cell := func(kind StackKind, op float64, trim bool) ExtGCCell {
		return RunExtGCCell(kind, op, trim, DefaultScale)
	}
	lowOP := cell(Vanilla, 7, false)
	highOP := cell(Vanilla, 28, false)
	lowTrim := cell(Vanilla, 7, true)
	highTrim := cell(Vanilla, 28, true)

	if lowOP.WA <= 1.0 || highOP.WA <= 1.0 {
		t.Errorf("aged WA must exceed 1: op7=%v op28=%v", lowOP.WA, highOP.WA)
	}
	if lowOP.WA < highOP.WA {
		t.Errorf("more over-provisioning must not raise WA: op7=%v op28=%v",
			lowOP.WA, highOP.WA)
	}
	if lowTrim.WA >= lowOP.WA {
		t.Errorf("TRIM must lower WA at 7%% OP: with=%v without=%v", lowTrim.WA, lowOP.WA)
	}
	if highTrim.WA >= highOP.WA {
		t.Errorf("TRIM must lower WA at 28%% OP: with=%v without=%v", highTrim.WA, highOP.WA)
	}
	if lowOP.GCRuns == 0 || lowOP.GCPauseP99 == 0 {
		t.Errorf("no GC observed on the aged low-OP device: %+v", lowOP)
	}
	if lowOP.TrimmedPages != 0 || lowTrim.TrimmedPages == 0 {
		t.Errorf("trim accounting wrong: off=%d on=%d",
			lowOP.TrimmedPages, lowTrim.TrimmedPages)
	}

	// The paper's ordering must survive the aged device: GC inflates every
	// stack's tail, but Daredevil's stays below vanilla's.
	ddMid := cell(DareFull, 15, false)
	vanMid := cell(Vanilla, 15, false)
	if ddMid.LTail >= vanMid.LTail {
		t.Errorf("daredevil L p99.9 (%v) should stay below vanilla (%v) on the aged device",
			ddMid.LTail, vanMid.LTail)
	}
}

// TestExtGCResultLookupAndText covers the sweep's table: a row lookup
// finds exactly the cells that exist, and the rendering includes the table
// and narration.
func TestExtGCResultLookupAndText(t *testing.T) {
	res := extGCTable([]ExtGCCell{
		{Kind: Vanilla, OPPct: 7, Trim: false, WA: 4.5},
		{Kind: DareFull, OPPct: 28, Trim: true, WA: 1.3},
	})
	if c, ok := res.Row(Vanilla, 7, "off"); !ok || c.Float("WA") != 4.5 {
		t.Fatalf("Row lookup failed: %+v %v", c, ok)
	}
	if _, ok := res.Row(BlkSwitch, 7, "off"); ok {
		t.Fatal("Row found a missing combination")
	}
	var buf bytes.Buffer
	res.WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"WA", "GC runs", "vanilla", "daredevil", "TRIM"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering missing %q:\n%s", want, out)
		}
	}
}
