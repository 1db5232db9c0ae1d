package harness

import (
	"bytes"
	"strings"
	"testing"

	"daredevil/internal/sim"
)

func TestExtSchedulersShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment shapes are slow")
	}
	res := RunExtSchedulers(expScale)
	const avg, tput = "avg (ms)", "T MB/s"
	van, _ := res.Row(Vanilla, 32)
	ky, _ := res.Row(Kyber, 32)
	dd, _ := res.Row(DareFull, 32)
	// Both mechanisms defeat vanilla's HOL collapse...
	if !van.Blocked(avg) {
		if ky.Dur(avg)*3 >= van.Dur(avg) {
			t.Errorf("kyber avg (%v) should be far below vanilla (%v)", ky.Dur(avg), van.Dur(avg))
		}
		if dd.Dur(avg)*3 >= van.Dur(avg) {
			t.Errorf("daredevil avg (%v) should be far below vanilla (%v)", dd.Dur(avg), van.Dur(avg))
		}
	}
	// ...with comparable throughput in this simulator (see EXPERIMENTS.md
	// for why throttling is cheap here).
	if ky.Float(tput) < van.Float(tput)*0.7 || dd.Float(tput) < van.Float(tput)*0.7 {
		t.Errorf("throughputs diverged: kyber %.0f daredevil %.0f vanilla %.0f",
			ky.Float(tput), van.Float(tput), dd.Float(tput))
	}
	var buf bytes.Buffer
	res.WriteText(&buf)
	if !strings.Contains(buf.String(), "kyber") {
		t.Fatal("rendering broken")
	}
}

func TestExtWRRShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment shapes are slow")
	}
	res := RunExtWRR(expScale)
	if len(res.Rows) != 4 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	rr, ok1 := res.Row("round-robin", 32)
	wrr, ok2 := res.Row("weighted-rr", 32)
	if !ok1 || !ok2 {
		t.Fatal("missing rows")
	}
	// Hardware fetch priority should not hurt, and typically helps.
	if wrr.Dur("avg (ms)") > rr.Dur("avg (ms)")*11/10 {
		t.Errorf("WRR avg (%v) worse than RR (%v)", wrr.Dur("avg (ms)"), rr.Dur("avg (ms)"))
	}
	var buf bytes.Buffer
	res.WriteText(&buf)
	if !strings.Contains(buf.String(), "weighted-rr") {
		t.Fatal("rendering broken")
	}
}

func TestExtPollingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment shapes are slow")
	}
	res := RunExtPolling(expScale)
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	irq, poll := res.At(0), res.At(1)
	if irq.Text("completion") != "interrupts" || poll.Text("completion") != "polled-high-NCQs" {
		t.Fatalf("row order wrong: %+v", res.Rows)
	}
	// At the µs floor polling should be at least as fast on average.
	if poll.Dur("avg (µs)") > irq.Dur("avg (µs)")*11/10 {
		t.Errorf("polled avg (%v) worse than interrupts (%v)", poll.Dur("avg (µs)"), irq.Dur("avg (µs)"))
	}
	var buf bytes.Buffer
	res.WriteText(&buf)
	if !strings.Contains(buf.String(), "polled-high-NCQs") {
		t.Fatal("rendering broken")
	}
}

func TestExtVirtioShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment shapes are slow")
	}
	res := RunExtVirtio(expScale)
	const avg = "avg (ms)"
	mixedVan, ok1 := res.Row("guest-mixed", Vanilla)
	mixedDD, ok2 := res.Row("guest-mixed", DareFull)
	decoupled, ok3 := res.Row("guest-decoupled", DareFull)
	if !ok1 || !ok2 || !ok3 {
		t.Fatal("missing combinations")
	}
	// A Daredevil host cannot help a mixed guest...
	ratio := float64(mixedDD.Dur(avg)) / float64(mixedVan.Dur(avg))
	if ratio < 0.8 || ratio > 1.2 {
		t.Errorf("mixed guest on daredevil (%v) should match vanilla (%v): host can't see guest SLAs",
			mixedDD.Dur(avg), mixedVan.Dur(avg))
	}
	// ...but per-SLA guest VQs restore the separation.
	if decoupled.Dur(avg)*2 >= mixedDD.Dur(avg) {
		t.Errorf("decoupled guest (%v) should be well below mixed (%v)", decoupled.Dur(avg), mixedDD.Dur(avg))
	}
	var buf bytes.Buffer
	res.WriteText(&buf)
	if !strings.Contains(buf.String(), "guest-decoupled") {
		t.Fatal("rendering broken")
	}
}

func TestKyberStackKindBuilds(t *testing.T) {
	env := NewEnv(SVM(2), Kyber)
	if env.Stack.Name() != "kyber" {
		t.Fatalf("Name = %q", env.Stack.Name())
	}
}

func TestSVGWritersProduceSVG(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment shapes are slow")
	}
	sc := Scale{Warmup: 10 * sim.Millisecond, Measure: 30 * sim.Millisecond}
	check := func(name string, err error, buf *bytes.Buffer) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.HasPrefix(buf.String(), "<svg") {
			t.Fatalf("%s: output is not SVG", name)
		}
	}
	var buf bytes.Buffer
	check("fig2", fig2Chart(RunFig2(sc)).WriteSVG(&buf), &buf)
	buf.Reset()
	check("fig6", pressureChart("SV-M")(RunFig6(sc)).WriteSVG(&buf), &buf)
	buf.Reset()
	check("fig14", fig14Chart(RunFig14(sc)).WriteSVG(&buf), &buf)
}

func TestExtWebappShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment shapes are slow")
	}
	res := RunExtWebapp(Scale{Warmup: 50 * sim.Millisecond, Measure: 300 * sim.Millisecond})
	van, ok1 := res.Row(Vanilla)
	dd, ok2 := res.Row(DareFull)
	if !ok1 || !ok2 {
		t.Fatal("missing rows")
	}
	const page, ck = "page avg (ms)", "checkpoint avg (ms)"
	// Checkpoint bursts must spike the vanilla page loads far above
	// Daredevil's, while checkpoints take comparable time on both.
	if dd.Dur(page)*3 >= van.Dur(page) {
		t.Errorf("daredevil page avg (%v) should be well below vanilla (%v)", dd.Dur(page), van.Dur(page))
	}
	if van.Int("checkpoints") == 0 || dd.Int("checkpoints") == 0 {
		t.Fatal("no checkpoints completed")
	}
	ratio := float64(dd.Dur(ck)) / float64(van.Dur(ck))
	if ratio > 1.3 {
		t.Errorf("daredevil checkpoint time %v vs vanilla %v: trainer pays too much", dd.Dur(ck), van.Dur(ck))
	}
	var buf bytes.Buffer
	res.WriteText(&buf)
	if !strings.Contains(buf.String(), "checkpoint avg") {
		t.Fatal("rendering broken")
	}
}
