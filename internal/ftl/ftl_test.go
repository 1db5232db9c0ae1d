package ftl

import (
	"math"
	"reflect"
	"testing"

	"daredevil/internal/fault"
	"daredevil/internal/flash"
	"daredevil/internal/sim"
)

// smallFlash is an 8-die geometry small enough to drive GC quickly.
func smallFlash() flash.Config {
	return flash.Config{
		Channels:        4,
		ChipsPerChannel: 2,
		PageSize:        4096,
		ReadLatency:     70 * sim.Microsecond,
		ProgramLatency:  420 * sim.Microsecond,
		XferLatency:     3 * sim.Microsecond,
		EraseLatency:    2 * sim.Millisecond,
	}
}

// smallFTL pairs with smallFlash: 8 dies x 16 blocks x 16 pages = 2048
// physical pages, 30% OP -> 1433 logical pages. OP well above the 2-3
// block clean reserve, so data blocks carry real invalidity.
func smallFTL() Config {
	return Config{
		PagesPerBlock:   16,
		BlocksPerDie:    16,
		OPPct:           30,
		Policy:          Greedy,
		GCBatchPages:    4,
		PreconditionPct: 100,
		ScramblePct:     30,
		Seed:            7,
	}
}

func newSmall(t *testing.T, cfg Config) (*sim.Engine, *Device) {
	t.Helper()
	eng := sim.New()
	d := New(eng, flash.New(smallFlash()), cfg)
	if err := d.CheckInvariants(); err != nil {
		t.Fatalf("invariants after New: %v", err)
	}
	return eng, d
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{PagesPerBlock: 0, BlocksPerDie: 10, OPPct: 7},
		{PagesPerBlock: 16, BlocksPerDie: 2, OPPct: 7},
		{PagesPerBlock: 16, BlocksPerDie: 10, OPPct: 1},
		{PagesPerBlock: 16, BlocksPerDie: 10, OPPct: 95},
		{PagesPerBlock: 16, BlocksPerDie: 10, OPPct: math.NaN()},
		{PagesPerBlock: 16, BlocksPerDie: 10, OPPct: 7, GCLowWater: 3, GCHighWater: 2},
		{PagesPerBlock: 16, BlocksPerDie: 10, OPPct: 7, PreconditionPct: 101},
		{PagesPerBlock: 16, BlocksPerDie: 10, OPPct: 7, ScramblePct: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
}

func TestPreconditionFillsLogicalSpace(t *testing.T) {
	_, d := newSmall(t, smallFTL())
	if got, want := d.ValidPages(), d.LogicalPages(); got != want {
		t.Fatalf("preconditioned valid pages = %d, want full logical space %d", got, want)
	}
	// Preconditioning is accounting-only: no media work, no pending events.
	if st := d.Stats(); st.HostPagesWritten != 0 || st.GCRuns != 0 {
		t.Fatalf("stats not clean after preconditioning: %+v", st)
	}
	if fl := d.media.Stats(); fl.PagesWritten != 0 || fl.Erases != 0 {
		t.Fatalf("preconditioning touched the media: %+v", fl)
	}
}

// churn performs n single-page overwrites at pseudo-random logical pages,
// draining the event queue (GC chains) as it goes.
func churn(eng *sim.Engine, d *Device, seed uint64, n int) {
	rng := sim.NewRand(seed)
	for i := 0; i < n; i++ {
		lp := rng.Int63n(d.LogicalPages())
		d.SubmitIO(eng.Now(), lp*4096, 4096, flash.Program)
		eng.Run()
	}
}

func TestGCReclaimsAndAmplifies(t *testing.T) {
	eng, d := newSmall(t, smallFTL())
	churn(eng, d, 42, 4000)
	if err := d.CheckInvariants(); err != nil {
		t.Fatalf("invariants after churn: %v", err)
	}
	st := d.Stats()
	if st.GCRuns == 0 {
		t.Fatal("no GC ran on a full device under overwrite churn")
	}
	if wa := st.WriteAmplification(); wa <= 1.0 {
		t.Fatalf("write amplification = %v, want > 1 on an aged device", wa)
	}
	if st.Erases == 0 || st.GCPagesMoved == 0 {
		t.Fatalf("GC accounting empty: %+v", st)
	}
	if d.GCPauses.Count() != st.GCRuns {
		t.Fatalf("pause histogram count %d != GC runs %d", d.GCPauses.Count(), st.GCRuns)
	}
	if d.GCPauses.Max() < 2*sim.Millisecond {
		t.Fatalf("max GC pause %v shorter than one erase", d.GCPauses.Max())
	}
}

func TestWearLeveling(t *testing.T) {
	eng, d := newSmall(t, smallFTL())
	churn(eng, d, 1, 6000)
	min, max := d.EraseCounts()
	if min == 0 {
		t.Fatal("some block never erased under heavy uniform churn: wear leveling ineffective")
	}
	if max > 4*min+8 {
		t.Fatalf("wear spread too wide: min=%d max=%d", min, max)
	}
}

func TestReadsMappedAndUnmapped(t *testing.T) {
	cfg := smallFTL()
	cfg.PreconditionPct = 0
	cfg.ScramblePct = 0
	eng, d := newSmall(t, cfg)
	before := d.media.Stats().PagesRead
	// Unmapped read: falls back to static placement, still pays media cost.
	if done := d.SubmitIO(eng.Now(), 0, 4096, flash.Read); done <= eng.Now() {
		t.Fatal("unmapped read completed instantly")
	}
	if got := d.media.Stats().PagesRead; got != before+1 {
		t.Fatalf("unmapped read media pages = %d, want %d", got, before+1)
	}
	// Mapped read: goes to the mapped die.
	d.SubmitIO(eng.Now(), 0, 4096, flash.Program)
	eng.Run()
	if done := d.SubmitIO(eng.Now(), 0, 4096, flash.Read); done <= eng.Now() {
		t.Fatal("mapped read completed instantly")
	}
	if got := d.media.Stats().PagesRead; got != before+2 {
		t.Fatalf("mapped read media pages = %d, want %d", got, before+2)
	}
}

func TestTrimInvalidatesAndSkipsMedia(t *testing.T) {
	eng, d := newSmall(t, smallFTL())
	validBefore := d.ValidPages()
	reads, writes := d.media.Stats().PagesRead, d.media.Stats().PagesWritten
	n := d.Trim(0, 64*4096)
	if n != 64 {
		t.Fatalf("trimmed %d pages of a fully mapped range, want 64", n)
	}
	if got := d.ValidPages(); got != validBefore-64 {
		t.Fatalf("valid pages %d after trim, want %d", got, validBefore-64)
	}
	if st := d.media.Stats(); st.PagesRead != reads || st.PagesWritten != writes {
		t.Fatal("trim performed media work")
	}
	if d.Stats().TrimmedPages != 64 {
		t.Fatalf("TrimmedPages = %d, want 64", d.Stats().TrimmedPages)
	}
	// Trimming the same range again is a no-op.
	if n := d.Trim(0, 64*4096); n != 0 {
		t.Fatalf("second trim invalidated %d pages, want 0", n)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatalf("invariants after trim: %v", err)
	}
	_ = eng
}

func TestTrimWakesEachDieOnceWithoutAllocating(t *testing.T) {
	eng, d := newSmall(t, smallFTL())
	// 64 mapped pages span all 8 dies: one wake-up event per die.
	before := eng.Pending()
	d.Trim(0, 64*4096)
	if got := eng.Pending() - before; got != d.numDies {
		t.Fatalf("Trim scheduled %d wake-ups, want one per die (%d)", got, d.numDies)
	}
	eng.Run()
	// Each run trims a fresh, still-mapped 8-page range and drains the
	// wake-ups, so the event pool is warm after the first run.
	next := int64(64)
	allocs := testing.AllocsPerRun(100, func() {
		if d.Trim(next*4096, 8*4096) == 0 {
			t.Fatal("trimmed an unmapped range; the test walked off the mapped space")
		}
		next += 8
		eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("Trim allocates %v objects per call, want 0", allocs)
	}
}

func TestTrimReducesWriteAmplification(t *testing.T) {
	run := func(trim bool) float64 {
		eng, d := newSmall(t, smallFTL())
		rng := sim.NewRand(99)
		var cursor int64
		for i := 0; i < 3000; i++ {
			lp := rng.Int63n(d.LogicalPages())
			d.SubmitIO(eng.Now(), lp*4096, 4096, flash.Program)
			if trim && i%4 == 3 {
				d.Trim(cursor*4096, 16*4096)
				cursor = (cursor + 16) % d.LogicalPages()
			}
			eng.Run()
		}
		if err := d.CheckInvariants(); err != nil {
			t.Fatalf("invariants (trim=%v): %v", trim, err)
		}
		return d.Stats().WriteAmplification()
	}
	without, with := run(false), run(true)
	if with >= without {
		t.Fatalf("TRIM did not reduce WA: with=%v without=%v", with, without)
	}
}

func TestForegroundGCUnderBurst(t *testing.T) {
	eng, d := newSmall(t, smallFTL())
	// Synchronous burst at one instant: background GC chains cannot make
	// progress between writes, so the write cliff must engage.
	rng := sim.NewRand(5)
	for i := 0; i < 2000; i++ {
		lp := rng.Int63n(d.LogicalPages())
		d.SubmitIO(eng.Now(), lp*4096, 4096, flash.Program)
	}
	if d.Stats().ForegroundGCs == 0 {
		t.Fatal("synchronous overwrite burst never hit the foreground-GC cliff")
	}
	eng.Run()
	if err := d.CheckInvariants(); err != nil {
		t.Fatalf("invariants after burst: %v", err)
	}
}

func TestCostBenefitPolicy(t *testing.T) {
	cfg := smallFTL()
	cfg.Policy = CostBenefit
	eng, d := newSmall(t, cfg)
	churn(eng, d, 11, 3000)
	if err := d.CheckInvariants(); err != nil {
		t.Fatalf("invariants under cost-benefit: %v", err)
	}
	if d.Stats().GCRuns == 0 {
		t.Fatal("cost-benefit GC never ran")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (Stats, [7]int64) {
		eng, d := newSmall(t, smallFTL())
		churn(eng, d, 123, 2500)
		s := d.GCPauses.Snapshot()
		return d.Stats(), [7]int64{int64(s.Count), int64(s.Mean), int64(s.P50),
			int64(s.P90), int64(s.P99), int64(s.P999), int64(s.Max)}
	}
	a, ah := run()
	b, bh := run()
	if a != b {
		t.Fatalf("stats differ across identical runs:\n%+v\n%+v", a, b)
	}
	if ah != bh {
		t.Fatalf("GC-pause histograms differ across identical runs:\n%v\n%v", ah, bh)
	}
}

func TestResetStatsKeepsMapping(t *testing.T) {
	eng, d := newSmall(t, smallFTL())
	churn(eng, d, 3, 500)
	valid := d.ValidPages()
	d.ResetStats()
	if st := d.Stats(); st != (Stats{}) {
		t.Fatalf("stats not cleared: %+v", st)
	}
	if d.GCPauses.Count() != 0 {
		t.Fatal("pause histogram not cleared")
	}
	if d.ValidPages() != valid {
		t.Fatal("ResetStats disturbed the mapping")
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatalf("invariants after reset: %v", err)
	}
}

// referencePrecondition is the oracle for the closed form in precondition.
// It maps PreconditionPct of the logical space one page at a time through
// the runtime allocator (round-robin die pick, openBlock, allocPage), then
// overwrites ScramblePct of it from the same seeded stream, stopping as
// soon as no die can absorb a write without dipping into its high-water
// free pool. Remaps skip the GC wake-up, as GC stays off while the device
// ages.
func referencePrecondition(d *Device) {
	fill := d.logPages * int64(d.cfg.PreconditionPct) / 100
	for lp := int64(0); lp < fill; lp++ {
		if !referencePreWrite(d, lp) {
			break // out of clean space; the filled prefix stands
		}
	}
	if d.cfg.ScramblePct > 0 && fill > 0 {
		rng := sim.NewRand(d.cfg.Seed + 0xa9ed)
		n := fill * int64(d.cfg.ScramblePct) / 100
		for i := int64(0); i < n; i++ {
			if !referencePreWrite(d, rng.Int63n(fill)) {
				break
			}
		}
	}
}

// referencePreWrite maps one logical page during reference
// preconditioning, or reports false when no die can take it while keeping
// a full high-water free pool.
func referencePreWrite(d *Device, lp int64) bool {
	for i := 1; i <= d.numDies; i++ {
		die := (d.allocRR + i) % d.numDies
		ds := &d.dies[die]
		if (ds.active >= 0 && ds.writePtr < d.ppb) || len(ds.free) > d.cfg.GCHighWater {
			d.allocRR = die
			pp := d.allocPage(die, 0, false)
			if old := d.l2p[lp]; old >= 0 {
				d.unmapPhys(old)
			}
			d.l2p[lp] = pp
			d.p2l[pp] = int32(lp)
			d.blocks[d.blockOfPhys(pp)].valid++
			return true
		}
	}
	return false
}

// checkPreconditionMatchesReference clones the aged device from an image
// and builds it again by running referencePrecondition over an unaged one,
// and fails unless the two states are identical.
func checkPreconditionMatchesReference(t *testing.T, fc flash.Config, cfg Config) {
	t.Helper()
	img := NewImage(cfg, fc.Channels*fc.ChipsPerChannel)
	got := NewFromImage(sim.New(), flash.New(fc), img)
	unaged := cfg
	unaged.PreconditionPct, unaged.ScramblePct = 0, 0
	want := New(sim.New(), flash.New(fc), unaged)
	checkUnaged(t, want)
	want.cfg = got.cfg
	referencePrecondition(want)

	if err := got.CheckInvariants(); err != nil {
		t.Fatalf("invariants after NewFromImage: %v", err)
	}
	checkSameState(t, got, want)
}

// checkSameState fails unless two devices hold the same mapping tables,
// block bookkeeping, per-die state (free lists with equal capacity) and
// allocation cursor.
func checkSameState(t *testing.T, got, want *Device) {
	t.Helper()
	checkTable(t, "l2p", got.l2p, want.l2p)
	checkTable(t, "p2l", got.p2l, want.p2l)
	for b := range got.blocks {
		if got.blocks[b] != want.blocks[b] {
			t.Fatalf("block %d = %+v, reference %+v", b, got.blocks[b], want.blocks[b])
		}
	}
	for i := range got.dies {
		g, w := got.dies[i], want.dies[i]
		if cap(g.free) != cap(w.free) {
			t.Fatalf("die %d: free list cap %d, reference %d", i, cap(g.free), cap(w.free))
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("die %d = %+v, reference %+v", i, g, w)
		}
	}
	if got.allocRR != want.allocRR {
		t.Fatalf("allocRR = %d, reference %d", got.allocRR, want.allocRR)
	}
}

// checkUnaged fails unless d is in the state every die starts from before
// aging: nothing mapped, every block free and unworn, sorted free lists, no
// open blocks, and the allocation cursor at die 0. The reference starts
// from this state, so it must not inherit a closed-form bug through New.
func checkUnaged(t *testing.T, d *Device) {
	t.Helper()
	for lp, pp := range d.l2p {
		if pp != -1 {
			t.Fatalf("unaged device: l2p[%d] = %d", lp, pp)
		}
	}
	for pp, lp := range d.p2l {
		if lp != -1 {
			t.Fatalf("unaged device: p2l[%d] = %d", pp, lp)
		}
	}
	for b, meta := range d.blocks {
		if meta != (blockMeta{free: true}) {
			t.Fatalf("unaged device: block %d = %+v", b, meta)
		}
	}
	for i, ds := range d.dies {
		if ds.active != -1 || ds.writePtr != 0 || len(ds.free) != d.cfg.BlocksPerDie {
			t.Fatalf("unaged device: die %d = %+v", i, ds)
		}
		for b, blk := range ds.free {
			if blk != b {
				t.Fatalf("unaged device: die %d free list %v not sorted", i, ds.free)
			}
		}
	}
	if d.allocRR != 0 {
		t.Fatalf("unaged device: allocRR = %d, want 0", d.allocRR)
	}
}

// checkTable fails at the first entry where a mapping table differs from
// the reference's.
func checkTable(t *testing.T, name string, got, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s has %d entries, reference %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %d, reference %d", name, i, got[i], want[i])
		}
	}
}

func TestPreconditionMatchesReference(t *testing.T) {
	with := func(f func(*Config)) Config {
		c := DefaultConfig()
		f(&c)
		return c
	}
	threeDies := smallFlash()
	threeDies.Channels, threeDies.ChipsPerChannel = 3, 1
	cases := []struct {
		name string
		fc   flash.Config
		cfg  Config
	}{
		{"default", flash.DefaultConfig(), DefaultConfig()},
		// OP 2 leaves less logical space than the high-water pools allow:
		// the fill is clamped and the scramble never starts.
		{"op2", flash.DefaultConfig(), with(func(c *Config) { c.OPPct = 2 })},
		{"op15", flash.DefaultConfig(), with(func(c *Config) { c.OPPct = 15 })},
		{"op28", flash.DefaultConfig(), with(func(c *Config) { c.OPPct = 28 })},
		{"precondition0", smallFlash(), with(func(c *Config) { c.PreconditionPct = 0 })},
		{"precondition50", smallFlash(), with(func(c *Config) { c.PreconditionPct = 50 })},
		{"scramble0", smallFlash(), with(func(c *Config) { c.ScramblePct = 0 })},
		{"scramble100", smallFlash(), with(func(c *Config) { c.ScramblePct = 100 })},
		// Three blocks per die is all high-water reserve: nothing is written.
		{"blocks3", smallFlash(), with(func(c *Config) { c.BlocksPerDie = 3 })},
		{"3pages5blocks", smallFlash(), with(func(c *Config) { c.PagesPerBlock, c.BlocksPerDie = 3, 5 })},
		{"watermarks-seed", smallFlash(), with(func(c *Config) {
			c.GCLowWater, c.GCHighWater, c.Seed = 1, 5, 99
		})},
		// A high watermark under the default low one: aging stops at one
		// free block, inside the GC-trigger zone.
		{"highwater1", smallFlash(), with(func(c *Config) { c.GCHighWater = 1 })},
		{"small", smallFlash(), smallFTL()},
		{"3dies", threeDies, smallFTL()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkPreconditionMatchesReference(t, tc.fc, tc.cfg)
		})
	}
}

// TestImageClonesAreIsolated drives one clone of an image through host
// writes, TRIM, GC rounds and grown-bad blocks, and fails if the image or a
// sibling clone observed any of it.
func TestImageClonesAreIsolated(t *testing.T) {
	const dies = 8
	img := NewImage(smallFTL(), dies)
	clone := func(eng *sim.Engine) *Device { return NewFromImage(eng, flash.New(smallFlash()), img) }
	eng := sim.New()
	d := clone(eng)
	sibling := clone(sim.New())

	d.AttachFault(fault.NewInjector(fault.Schedule{Seed: 5, ProgramFailProb: 0.02}))
	churn(eng, d, 42, 2000)
	if n := d.Trim(0, 256*4096); n == 0 {
		t.Fatal("trim of a mapped range invalidated nothing")
	}
	eng.Run()
	churn(eng, d, 43, 2000)
	st := d.Stats()
	if st.GCRuns == 0 || st.TrimmedPages == 0 || st.ProgramFailures == 0 || st.GrownBadBlocks == 0 {
		t.Fatalf("the driven clone skipped GC, TRIM or grown-bad blocks: %+v", st)
	}

	if !reflect.DeepEqual(img, NewImage(smallFTL(), dies)) {
		t.Fatal("driving a clone changed the image it came from")
	}
	fresh := clone(sim.New())
	checkSameState(t, sibling, fresh)
	if sibling.Stats() != (Stats{}) {
		t.Fatalf("sibling clone has stats %+v", sibling.Stats())
	}
	for i, dev := range []*Device{d, sibling, fresh} {
		if err := dev.CheckInvariants(); err != nil {
			t.Errorf("clone %d (driven, sibling, fresh): %v", i, err)
		}
	}
}

func FuzzPrecondition(f *testing.F) {
	f.Add(uint8(8), uint8(16), uint8(16), uint8(30), uint8(100), uint8(30), uint8(0), uint8(0), uint64(7))
	f.Add(uint8(3), uint8(3), uint8(5), uint8(2), uint8(100), uint8(100), uint8(0), uint8(0), uint64(1))
	f.Add(uint8(1), uint8(1), uint8(4), uint8(50), uint8(37), uint8(64), uint8(1), uint8(2), uint64(3))
	f.Fuzz(func(t *testing.T, dies, ppb, bpd, op, pre, scr, low, high uint8, seed uint64) {
		fc := smallFlash()
		fc.Channels, fc.ChipsPerChannel = 1+int(dies%9), 1
		cfg := Config{
			PagesPerBlock:   1 + int(ppb%16),
			BlocksPerDie:    3 + int(bpd%14),
			OPPct:           float64(2 + op%89),
			PreconditionPct: int(pre % 101),
			ScramblePct:     int(scr % 101),
			GCLowWater:      int(low % 5),
			GCHighWater:     int(high % 7),
			Seed:            seed,
		}
		if cfg.Validate() != nil {
			t.Skip()
		}
		phys := int64(fc.Channels) * int64(cfg.BlocksPerDie) * int64(cfg.PagesPerBlock)
		if phys*int64((100-cfg.OPPct)*100)/10000 <= 0 {
			t.Skip() // zero logical capacity; New rejects it
		}
		checkPreconditionMatchesReference(t, fc, cfg)
	})
}

var benchDevice *Device

// BenchmarkFTLNew builds the default aged device (4 GiB over the default
// 128-die flash, 100% preconditioned, 30% scrambled), the device every
// FTL-backed cell pays for before its run starts.
func BenchmarkFTLNew(b *testing.B) {
	eng := sim.New()
	media := flash.New(flash.DefaultConfig())
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchDevice = New(eng, media, cfg)
	}
}

// BenchmarkFTLNewFromImage clones the default aged device from its image:
// what an FTL-backed cell pays once the image is cached.
func BenchmarkFTLNewFromImage(b *testing.B) {
	eng := sim.New()
	media := flash.New(flash.DefaultConfig())
	img := NewImage(DefaultConfig(), media.NumChips())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchDevice = NewFromImage(eng, media, img)
	}
}
