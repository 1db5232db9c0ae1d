package flash

import (
	"fmt"
	"testing"
	"testing/quick"

	"daredevil/internal/sim"
)

func smallConfig() Config {
	return Config{
		Channels:        4,
		ChipsPerChannel: 2,
		PageSize:        4096,
		ReadLatency:     70 * sim.Microsecond,
		ProgramLatency:  420 * sim.Microsecond,
		XferLatency:     3 * sim.Microsecond,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{Channels: 0, ChipsPerChannel: 1, PageSize: 1, ReadLatency: 1, ProgramLatency: 1},
		{Channels: 1, ChipsPerChannel: 0, PageSize: 1, ReadLatency: 1, ProgramLatency: 1},
		{Channels: 1, ChipsPerChannel: 1, PageSize: 0, ReadLatency: 1, ProgramLatency: 1},
		{Channels: 1, ChipsPerChannel: 1, PageSize: 1, ReadLatency: 0, ProgramLatency: 1},
		{Channels: 1, ChipsPerChannel: 1, PageSize: 1, ReadLatency: 1, ProgramLatency: 1, XferLatency: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with invalid config must panic")
		}
	}()
	New(Config{})
}

func TestPagesCount(t *testing.T) {
	d := New(smallConfig())
	cases := []struct {
		off, size int64
		want      int
	}{
		{0, 4096, 1},
		{0, 4097, 2},
		{100, 4096, 2}, // straddles a page boundary
		{0, 131072, 32},
		{4096, 0, 0},
		{0, 1, 1},
	}
	for _, c := range cases {
		if got := d.Pages(c.off, c.size); got != c.want {
			t.Errorf("Pages(%d, %d) = %d, want %d", c.off, c.size, got, c.want)
		}
	}
}

func TestSingleReadLatency(t *testing.T) {
	d := New(smallConfig())
	done := d.SubmitIO(0, 0, 4096, Read)
	want := sim.Time(0).Add(70*sim.Microsecond + 3*sim.Microsecond)
	if done != want {
		t.Fatalf("read done at %v, want %v", done, want)
	}
}

func TestSingleProgramLatency(t *testing.T) {
	d := New(smallConfig())
	done := d.SubmitIO(0, 0, 4096, Program)
	want := sim.Time(0).Add(3*sim.Microsecond + 420*sim.Microsecond)
	if done != want {
		t.Fatalf("program done at %v, want %v", done, want)
	}
}

func TestStripingParallelism(t *testing.T) {
	d := New(smallConfig())
	// 4 pages across 4 channels: all dies work in parallel, so the request
	// finishes roughly one page-read later, not four.
	done := d.SubmitIO(0, 0, 4*4096, Read)
	oneRead := 73 * sim.Microsecond
	if done > sim.Time(0).Add(oneRead+3*4*sim.Microsecond) {
		t.Fatalf("4-page striped read done at %v, want ≈%v (parallel)", done, oneRead)
	}
}

func TestSameChipSerializes(t *testing.T) {
	d := New(smallConfig())
	// Two reads of the same page hit the same die and serialize.
	first := d.SubmitIO(0, 0, 4096, Read)
	second := d.SubmitIO(0, 0, 4096, Read)
	if second <= first {
		t.Fatalf("same-die reads did not serialize: %v then %v", first, second)
	}
	if second.Sub(first) < 70*sim.Microsecond {
		t.Fatalf("second read gained only %v over first, want >= tR", second.Sub(first))
	}
}

func TestLargeWriteSlowerThanLargeRead(t *testing.T) {
	dr := New(smallConfig())
	dw := New(smallConfig())
	rDone := dr.SubmitIO(0, 0, 131072, Read)
	wDone := dw.SubmitIO(0, 0, 131072, Program)
	if wDone <= rDone {
		t.Fatalf("128KB write (%v) should be slower than read (%v)", wDone, rDone)
	}
}

func TestBacklogGrowsUnderLoad(t *testing.T) {
	d := New(smallConfig())
	if d.MaxBacklog(0) != 0 {
		t.Fatal("fresh device must have zero backlog")
	}
	for i := 0; i < 10; i++ {
		d.SubmitIO(0, 0, 131072, Program)
	}
	if d.MaxBacklog(0) < 100*sim.Microsecond {
		t.Fatalf("backlog = %v after flooding, want large", d.MaxBacklog(0))
	}
	if d.QueuedWork(0, 0) == 0 {
		t.Fatal("QueuedWork for flooded die must be positive")
	}
}

func TestStatsCount(t *testing.T) {
	d := New(smallConfig())
	d.SubmitIO(0, 0, 8192, Read)
	d.SubmitIO(0, 0, 4096, Program)
	s := d.Stats()
	if s.PagesRead != 2 || s.PagesWritten != 1 {
		t.Fatalf("stats = %+v, want 2 read / 1 written", s)
	}
}

func TestChipPlacementCoversAllDies(t *testing.T) {
	d := New(smallConfig())
	seen := make(map[[2]int]bool)
	for p := int64(0); p < int64(d.NumChips()); p++ {
		ch, chip := d.chipOf(p)
		if ch < 0 || ch >= 4 || chip < 0 || chip >= 2 {
			t.Fatalf("page %d placed at (%d,%d), out of range", p, ch, chip)
		}
		seen[[2]int{ch, chip}] = true
	}
	if len(seen) != d.NumChips() {
		t.Fatalf("consecutive pages touched %d dies, want %d", len(seen), d.NumChips())
	}
}

// Property: completion never precedes submission plus the minimum service
// time, a later read of the same range never finishes earlier, and a later
// program on the same die finishes at least one program latency after the
// earlier one. Reads and programs are keyed differently: a read maps its
// LBA to a fixed die, while a program appends to the next die of the
// allocation cursor whatever its LBA (every NumChips()-th program shares a
// die), so a read may legitimately finish before an earlier program of the
// same page.
func TestCompletionMonotonicProperty(t *testing.T) {
	prop := func(offs []uint16, writeMask uint16) bool {
		d := New(smallConfig())
		pg := d.Config().ProgramLatency
		lastSamePage := map[int64]sim.Time{}
		lastOnDie := map[int]sim.Time{}
		programs := 0
		for i, o := range offs {
			off := int64(o) * 4096
			op := Read
			min := d.Config().ReadLatency
			if writeMask&(1<<(i%16)) != 0 {
				op = Program
				min = d.Config().ProgramLatency
			}
			done := d.SubmitIO(0, off, 4096, op)
			if done < sim.Time(0).Add(min) {
				return false
			}
			if op == Program {
				die := programs % d.NumChips()
				programs++
				if prev, ok := lastOnDie[die]; ok && done < prev.Add(pg) {
					return false
				}
				lastOnDie[die] = done
				continue
			}
			page := off / 4096
			if prev, ok := lastSamePage[page]; ok && done <= prev {
				return false
			}
			lastSamePage[page] = done
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitPageUnknownOpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown op must panic")
		}
	}()
	New(smallConfig()).SubmitPage(0, 0, Op(99))
}

func TestZeroSizeIO(t *testing.T) {
	d := New(smallConfig())
	if done := d.SubmitIO(42, 0, 0, Read); done != 42 {
		t.Fatalf("zero-size IO done at %v, want 42 (immediate)", done)
	}
}

// perPage is the per-page reference model SubmitIO must agree with: every
// page acquires its die and its channel bus one at a time, in the order the
// original per-page loop did (reads: die then bus; programs: bus then die,
// on the next die of the log-structured allocation cursor). It shares no
// code with Device beyond the static page placement.
type perPage struct {
	cfg     Config
	dies    []sim.Time
	chans   []sim.Time
	allocRR int64
	stats   Stats
}

func newPerPage(cfg Config) *perPage {
	return &perPage{
		cfg:   cfg,
		dies:  make([]sim.Time, cfg.Channels*cfg.ChipsPerChannel),
		chans: make([]sim.Time, cfg.Channels),
	}
}

// refAcquire grants a FIFO resource whose busy horizon is *free to a holder
// arriving at now for hold, and returns the grant instant.
func refAcquire(free *sim.Time, now sim.Time, hold sim.Duration) sim.Time {
	g := sim.MaxTime(now, *free)
	*free = g.Add(hold)
	return g
}

func (m *perPage) atDie(now sim.Time, die int, op Op) sim.Time {
	bus := &m.chans[die/m.cfg.ChipsPerChannel]
	switch op {
	case Read:
		m.stats.PagesRead++
		g := refAcquire(&m.dies[die], now, m.cfg.ReadLatency)
		b := refAcquire(bus, g.Add(m.cfg.ReadLatency), m.cfg.XferLatency)
		return b.Add(m.cfg.XferLatency)
	case Program:
		m.stats.PagesWritten++
		b := refAcquire(bus, now, m.cfg.XferLatency)
		g := refAcquire(&m.dies[die], b.Add(m.cfg.XferLatency), m.cfg.ProgramLatency)
		return g.Add(m.cfg.ProgramLatency)
	default:
		m.stats.Erases++
		g := refAcquire(&m.dies[die], now, m.cfg.EraseLatency)
		return g.Add(m.cfg.EraseLatency)
	}
}

func (m *perPage) page(d *Device, now sim.Time, page int64, op Op) sim.Time {
	if op == Program {
		m.allocRR++
		return m.atDie(now, int(m.allocRR%int64(len(m.dies))), Program)
	}
	ch, chip := d.chipOf(page)
	return m.atDie(now, ch*m.cfg.ChipsPerChannel+chip, op)
}

func (m *perPage) io(d *Device, now sim.Time, offset, size int64, op Op) sim.Time {
	if size <= 0 {
		return now
	}
	first := offset / m.cfg.PageSize
	last := (offset + size - 1) / m.cfg.PageSize
	done := now
	for p := first; p <= last; p++ {
		if t := m.page(d, now, p, op); t > done {
			done = t
		}
	}
	return done
}

// chanFreeAt reports channel ch's busy horizon.
func chanFreeAt(d *Device, ch int) sim.Time { return d.channels[ch] }

// sameState reports the first difference between d and the reference.
func sameState(d *Device, m *perPage) string {
	for i := range m.dies {
		if got := d.DieFreeAt(i); got != m.dies[i] {
			return fmt.Sprintf("die %d free at %v, reference %v", i, got, m.dies[i])
		}
	}
	for i := range m.chans {
		if got := chanFreeAt(d, i); got != m.chans[i] {
			return fmt.Sprintf("channel %d free at %v, reference %v", i, got, m.chans[i])
		}
	}
	if d.Stats() != m.stats {
		return fmt.Sprintf("stats %+v, reference %+v", d.Stats(), m.stats)
	}
	if d.allocRR != m.allocRR {
		return fmt.Sprintf("allocRR %d, reference %d", d.allocRR, m.allocRR)
	}
	return ""
}

// diffGeometries are the layouts the differential tests sweep: the default
// power-of-two device, a non-power-of-two one, one-page and 12 KB (three
// page) interleave units, and a single channel, where consecutive runs of
// a program wrap back onto the same bus.
func diffGeometries() []Config {
	def := DefaultConfig()
	odd := DefaultConfig()
	odd.Channels, odd.ChipsPerChannel = 3, 5
	page := DefaultConfig()
	page.InterleaveBytes = 0
	odd12 := odd
	odd12.InterleaveBytes = 12 * 1024
	one := smallConfig()
	one.Channels, one.ChipsPerChannel = 1, 4
	one.EraseLatency = sim.Millisecond
	return []Config{def, odd, page, odd12, one}
}

// diffStep drives one call on both the device and the reference, decoded
// from four random words, and reports the first disagreement.
func diffStep(d *Device, m *perPage, now sim.Time, a, b, c, e uint32) string {
	pg := d.cfg.PageSize
	op := Op(a % 2)
	switch b % 8 {
	case 0: // single page through SubmitPage
		page := int64(c % 4096)
		got, want := d.SubmitPage(now, page, op), m.page(d, now, page, op)
		if got != want {
			return fmt.Sprintf("SubmitPage(%v, %d, %d) = %v, reference %v", now, page, op, got, want)
		}
	case 1: // explicit die, the FTL's path, erases included
		die := int(c % uint32(len(m.dies)))
		op = Op(a % 3)
		got, want := d.SubmitAtDie(now, die, op), m.atDie(now, die, op)
		if got != want {
			return fmt.Sprintf("SubmitAtDie(%v, %d, %d) = %v, reference %v", now, die, op, got, want)
		}
	default:
		// Byte ranges up to 300 pages, so long programs wrap every die of
		// the default geometry at least once; offsets need not align.
		off := int64(c%8192)*pg + int64(e%3)*(int64(e)%pg)
		size := int64(e % (300 * uint32(pg)))
		if b%8 == 2 {
			size = 128 * 1024 // the T-tenants' request size
		}
		got, want := d.SubmitIO(now, off, size, op), m.io(d, now, off, size, op)
		if got != want {
			return fmt.Sprintf("SubmitIO(%v, %d, %d, %d) = %v, reference %v", now, off, size, op, got, want)
		}
	}
	return sameState(d, m)
}

func TestSubmitIOMatchesPerPage(t *testing.T) {
	for gi, cfg := range diffGeometries() {
		d, m := New(cfg), newPerPage(cfg)
		r := sim.NewRand(uint64(gi) + 1)
		now := sim.Time(0)
		for step := 0; step < 4000; step++ {
			// Arrivals advance by less than one program, so the dies and
			// buses alternate between idle and deeply backlogged.
			now = now.Add(sim.Duration(r.Uint64() % uint64(40*sim.Microsecond)))
			if msg := diffStep(d, m, now, uint32(r.Uint64()), uint32(r.Uint64()),
				uint32(r.Uint64()), uint32(r.Uint64())); msg != "" {
				t.Fatalf("geometry %d step %d: %s", gi, step, msg)
			}
		}
	}
}

func FuzzSubmitIO(f *testing.F) {
	f.Add([]byte{0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 3, 1, 7, 9, 200, 4, 1, 5, 0, 3, 3, 3, 3, 2, 2, 2, 2, 255, 255, 1})
	f.Add([]byte{3, 4, 5, 1, 0, 0, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 1, 2, 3, 4, 5})
	f.Add([]byte{4, 2, 2, 2, 2, 200, 1, 0, 0, 0, 0, 0, 0, 0, 0, 77, 77, 77, 77})
	geoms := diffGeometries()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		cfg := geoms[int(data[0])%len(geoms)]
		d, m := New(cfg), newPerPage(cfg)
		now := sim.Time(0)
		word := func(p []byte) uint32 {
			return uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16 | uint32(p[3])<<24
		}
		// Each step consumes 17 bytes: a time advance and four words.
		for p := data[1:]; len(p) >= 17; p = p[17:] {
			now = now.Add(sim.Duration(p[0]) * sim.Microsecond)
			if msg := diffStep(d, m, now, word(p[1:]), word(p[5:]), word(p[9:]), word(p[13:])); msg != "" {
				t.Fatal(msg)
			}
		}
	})
}

// BenchmarkFlashProgram128K measures the media layer's share of a
// T-tenant write: one 128 KB program (32 pages striped over 32 dies and
// four channel buses of the default geometry) per op, arriving at the
// device's sustained write rate so the dies stay backlogged.
func BenchmarkFlashProgram128K(b *testing.B) {
	d := New(DefaultConfig())
	const size = 128 * 1024
	pages := d.Pages(0, size)
	now := sim.Time(0)
	var sink sim.Time
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = d.SubmitIO(now, int64(i)*size, size, Program)
		now = now.Add(100 * sim.Microsecond)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pages), "ns/page")
	_ = sink
}
