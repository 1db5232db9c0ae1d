package sim

import "math/bits"

// The hierarchical timing wheel fronts the 4-ary heap for long-horizon
// events. Scheduling into a wheel slot is O(1) — one append and a bitmap
// OR — so the timer-heavy tiers (per-command expiry, IRQ coalescing,
// sampler ticks, erase completions) stop paying the heap's O(log n)
// sift per insert and, more importantly, stop inflating the heap that
// every short-horizon event must sift through.
//
// Determinism is preserved by construction: the wheel never fires a
// callback. Before the engine pops an event, prepare() flushes every
// wheel slot that could contain an earlier-or-equal instant into the
// heap, and the heap restores the exact (at, seq) total order. Two
// events at the same instant therefore fire in scheduling order whether
// they travelled through the wheel, the heap, or one of each — the same
// order the heap-only engine produced.
//
// Geometry: three levels of 64 slots above a tick of 2^wheelTickShift
// nanoseconds. Level l covers deltas of (64^l, 64^(l+1)] ticks; an event
// further out than the whole wheel (≈4.3 s at the default 16.4 µs tick)
// goes straight to the heap, as does anything landing in the current
// tick. A slot at level l+1 cascades into level l when the
// clock approaches its window, so each event is touched at most
// levels+1 times.
//
// Slot-residence invariant: every wheel event has tick ∈
// (wheelCur, wheelCur + 64^(l+1)] for its level l, which makes the slot
// index tick>>(6l) mod 64 unique per occupied window and lets the
// occupancy bitmaps find the next non-empty slot with one rotate and a
// trailing-zeros count instead of a scan.

const (
	// wheelTickShift sets the tick to 2^14 ns = 16.4 µs: coarse enough
	// that the sub-16µs kernel/device event chains (SQE fetch, CQE post,
	// IRQ delivery, ISR, context switch) usually land in the current tick
	// and take the direct heap path — one push instead of a wheel
	// insert-flush-push round trip — while flash-scale operations
	// (transfers, erases) and the timer tiers (per-command expiry, IRQ
	// coalescing, sampler ticks) still spread across the wheel and stay
	// out of every short event's sift path. Measured on the whole-
	// simulator benchmark this beats a 1µs tick by ~15% wall clock.
	wheelTickShift = 14
	wheelBits      = 6
	wheelSlots     = 1 << wheelBits
	wheelMask      = wheelSlots - 1
	wheelLevels    = 3
)

// wheel is the per-engine timing-wheel state.
type wheel struct {
	// slot[l][s] holds the pending events hashed to slot s of level l,
	// in arrival order (the heap re-establishes (at, seq) order on
	// flush). Slices keep their capacity across flushes, so a slot that
	// has reached its high-water mark schedules with zero allocation.
	slot [wheelLevels][wheelSlots][]event
	// occ[l] has bit s set iff slot[l][s] is non-empty.
	occ [wheelLevels]uint64
	// cur is the wheel clock in ticks: every resident event has
	// tick > cur. It only advances, and never past an occupied slot's
	// window.
	cur int64
	// count is the number of resident events (Pending includes them).
	count int
	// pickLvl, pickSlot and pickLB cache wheelScan's answer: the slot to
	// flush next and a lower bound on every resident event's tick
	// (pickLB = 0: unknown, rescan). Every insert refines them with the
	// scan's own rules, so prepare answers "is the heap top earlier than
	// everything in the wheel?" with one compare, and a flush acts on the
	// slot a previous call already found instead of scanning again.
	pickLvl  int
	pickSlot int
	pickLB   int64
	// arena is the carve source for first-touch slot capacity: slots take
	// their initial wheelSlotSeed-event backing from one shared chunk, so
	// a fresh engine pays one allocation per arenaChunk carves instead of
	// one per touched slot (192 slots × 3 levels would otherwise each
	// allocate during ramp-up).
	arena []event
}

const (
	// wheelSlotSeed is a slot's first-touch capacity: big enough that a
	// fresh engine skips the 1→2→4→8 append-growth ladder, small enough
	// that 192 seeded slots stay under a few kilobytes of arena.
	wheelSlotSeed = 8
	// arenaChunk is the arena refill size, in events.
	arenaChunk = 32 * wheelSlotSeed
)

// schedule routes one event to a wheel slot or, for the current tick and
// beyond-horizon deltas, the heap. The same-tick case is the short-delay
// fast path (device events within one tick of now) and stays small
// enough to inline into At.
//
//ddvet:hotpath
func (e *Engine) schedule(ev event) {
	tick := int64(ev.at) >> wheelTickShift
	if tick == e.wh.cur {
		// Same tick as the wheel clock: the heap alone orders it.
		e.push(ev)
		return
	}
	e.wheelInsert(ev, tick)
}

// wheelInsert hashes an out-of-tick event into its wheel level, or the
// heap for already-flushed ticks and beyond-horizon deltas.
//
//ddvet:hotpath
func (e *Engine) wheelInsert(ev event, tick int64) {
	dt := tick - e.wh.cur
	var lvl int
	switch {
	case dt < 1:
		// An already-flushed tick: the heap alone orders it.
		e.push(ev)
		return
	case dt <= wheelSlots:
		lvl = 0
	case dt <= wheelSlots*wheelSlots:
		lvl = 1
	case dt <= wheelSlots*wheelSlots*wheelSlots:
		lvl = 2
	default:
		// Beyond the wheel horizon (~275 ms): rare, heap absorbs it.
		e.push(ev)
		return
	}
	s := int(tick>>(wheelBits*lvl)) & wheelMask
	sl := e.wh.slot[lvl][s]
	if cap(sl) == 0 {
		// First touch of this slot: carve seed capacity from the shared
		// arena. The capped three-index carve means a slot outgrowing its
		// seed reallocates privately without clobbering its neighbor.
		if len(e.wh.arena) < wheelSlotSeed {
			e.wh.arena = make([]event, arenaChunk)
		}
		sl = e.wh.arena[:0:wheelSlotSeed]
		e.wh.arena = e.wh.arena[wheelSlotSeed:]
	}
	e.wh.slot[lvl][s] = append(sl, ev)
	e.wh.occ[lvl] |= 1 << uint(s)
	e.wh.count++
	// Refine the cached pick. An unknown pick may only become known again
	// via a scan or when this insert is the sole resident — seeding it
	// from one insert while other slots hold events would fabricate a
	// bound above their ticks. The slot's bound is the one wheelScan
	// computes: the window start, which for level 0 is the tick itself.
	// The smaller bound wins; on a tie the higher level does, as in the
	// scan.
	shift := uint(wheelBits * lvl)
	b := tick >> shift << shift
	if e.wh.count == 1 || (e.wh.pickLB != 0 &&
		(b < e.wh.pickLB || (b == e.wh.pickLB && lvl > e.wh.pickLvl))) {
		e.wh.pickLvl, e.wh.pickSlot, e.wh.pickLB = lvl, s, b
	}
}

// nextSlot finds level l's earliest occupied slot relative to the wheel
// clock. It returns the slot index and its offset in windows of that
// level, in [1, 64] — offset 64 is the wrap slot (delta exactly 64
// windows), reachable because each level admits deltas up to and
// including its full span.
func (w *wheel) nextSlot(l int) (s, offset int, ok bool) {
	bm := w.occ[l]
	if bm == 0 {
		return 0, 0, false
	}
	cur := int(w.cur>>(wheelBits*l)) & wheelMask
	// Rotate so bit k represents slot cur+1+k (mod 64): trailing zeros
	// then count windows-minus-one to the first occupied slot.
	rot := bits.RotateLeft64(bm, -(cur + 1))
	offset = bits.TrailingZeros64(rot) + 1
	return (cur + offset) & wheelMask, offset, true
}

// scan locates the wheel's most urgent slot: the level and slot to act
// on next, plus a lower bound (in ticks) on every event that slot holds.
// For level 0 the bound is the slot's exact tick; for higher levels it
// is the window's start tick. Ties prefer the higher level so a window
// always cascades before the clock advances into it.
func (e *Engine) wheelScan() (lvl, slot int, lb int64) {
	lvl = -1
	for l := wheelLevels - 1; l >= 0; l-- {
		s, offset, ok := e.wh.nextSlot(l)
		if !ok {
			continue
		}
		shift := uint(wheelBits * l)
		b := (e.wh.cur>>shift + int64(offset)) << shift
		// Strict < : on a tie the higher level keeps the pick, so its
		// window cascades before the clock advances into it — otherwise
		// the window's slot would alias the wrap position and its
		// events would flush an entire revolution late.
		if lvl < 0 || b < lb {
			lvl, slot, lb = l, s, b
		}
	}
	return lvl, slot, lb
}

// flush acts on scan's choice: a level-0 slot empties into the heap; a
// higher-level slot cascades its window down, re-hashing each event by
// its remaining delta. Either way the wheel clock advances to just
// before the slot's window, so re-hashed events land strictly below
// their old level and every skipped tick is provably empty.
//
//ddvet:hotpath
func (e *Engine) flush(lvl, slot int, lb int64) {
	evs := e.wh.slot[lvl][slot]
	e.wh.slot[lvl][slot] = evs[:0]
	e.wh.occ[lvl] &^= 1 << uint(slot)
	e.wh.count -= len(evs)
	// The flushed slot was the pick. Cascaded re-inserts below seed a
	// fresh one only if the wheel held nothing else; otherwise the next
	// prepare rescans.
	e.wh.pickLB = 0
	if lvl == 0 {
		e.wh.cur = lb
		for _, ev := range evs {
			e.push(ev)
		}
		return
	}
	e.wh.cur = lb - 1
	for _, ev := range evs {
		e.schedule(ev)
	}
}

// prepare establishes the pop invariant: when it returns true, the heap
// top is the globally earliest pending event. The wheel-empty case
// inlines into Step/Run/RunUntil; with residents, one cached compare
// usually settles it.
//
//ddvet:hotpath
func (e *Engine) prepare() bool {
	if e.wh.count == 0 {
		return len(e.events) > 0
	}
	return e.prepareWheel()
}

// prepareWheel flushes wheel slots only while one could still contain an
// earlier-or-equal instant than the heap top, so a RunUntil horizon far
// short of the wheel's content moves at most one slot per call instead
// of draining the whole wheel.
//
//ddvet:hotpath
func (e *Engine) prepareWheel() bool {
	for e.wh.count > 0 {
		if e.wh.pickLB == 0 {
			e.wh.pickLvl, e.wh.pickSlot, e.wh.pickLB = e.wheelScan()
		}
		lb := e.wh.pickLB
		if len(e.events) > 0 && e.events[0].at < Time(lb<<wheelTickShift) {
			return true
		}
		e.flush(e.wh.pickLvl, e.wh.pickSlot, lb)
	}
	return len(e.events) > 0
}
