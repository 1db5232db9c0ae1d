package sim

import (
	"sort"
	"testing"
)

// These tests pin the timing wheel's one obligation: staging events in
// wheel slots must be invisible — dispatch order, clock behavior, and
// slot accounting must match the heap-only engine exactly.

// TestWheelDispatchMatchesReferenceSort spans all wheel levels and the
// overflow path with random deltas (plus many same-instant ties) and
// checks dispatch against a stable (time, insertion) sort.
func TestWheelDispatchMatchesReferenceSort(t *testing.T) {
	// Deltas are drawn around every structural boundary: same-tick,
	// level capacities, and beyond the horizon.
	spans := []int64{
		1, 1 << wheelTickShift, // sub-tick ties
		wheelSlots << wheelTickShift,                                 // level 0
		(wheelSlots * wheelSlots) << wheelTickShift,                  // level 1
		(wheelSlots * wheelSlots * wheelSlots) << wheelTickShift,     // level 2
		(wheelSlots * wheelSlots * wheelSlots * 4) << wheelTickShift, // overflow
	}
	for seed := uint64(1); seed <= 20; seed++ {
		for _, span := range spans {
			rng := NewRand(seed)
			e := New()
			n := int(rng.Intn(300)) + 1
			ref := make([]refEvent, 0, n)
			var got []int
			for i := 0; i < n; i++ {
				at := Time(rng.Int63n(span))
				ref = append(ref, refEvent{at: at, idx: i})
				i := i
				e.At(at, func() { got = append(got, i) })
			}
			sort.SliceStable(ref, func(a, b int) bool { return ref[a].at < ref[b].at })
			e.Run()
			if len(got) != n {
				t.Fatalf("seed %d span %d: fired %d events, want %d", seed, span, len(got), n)
			}
			for k := range ref {
				if got[k] != ref[k].idx {
					t.Fatalf("seed %d span %d: dispatch[%d] = event %d, want %d",
						seed, span, k, got[k], ref[k].idx)
				}
			}
		}
	}
}

// TestWheelNestedSchedulingAcrossLevels schedules from inside callbacks
// with deltas that straddle level boundaries, so cascades interleave with
// dispatch, and checks the clock never regresses and nothing is lost.
func TestWheelNestedSchedulingAcrossLevels(t *testing.T) {
	e := New()
	rng := NewRand(11)
	deltas := []Duration{
		0, 1,
		1 << wheelTickShift,
		63 << wheelTickShift, 64 << wheelTickShift, 65 << wheelTickShift,
		4095 << wheelTickShift, 4096 << wheelTickShift, 4097 << wheelTickShift,
		262143 << wheelTickShift, 262144 << wheelTickShift, 262145 << wheelTickShift,
	}
	fired := 0
	last := Time(0)
	remaining := 2000
	var reschedule func()
	reschedule = func() {
		fired++
		if e.Now() < last {
			t.Fatalf("clock moved backwards: %v < %v", e.Now(), last)
		}
		last = e.Now()
		if remaining > 0 {
			remaining--
			e.After(deltas[rng.Intn(len(deltas))], reschedule)
		}
	}
	for i := 0; i < 16; i++ {
		e.After(deltas[rng.Intn(len(deltas))], reschedule)
	}
	e.Run()
	if fired != 16+2000 {
		t.Fatalf("fired %d, want %d", fired, 16+2000)
	}
	if e.liveSlots() != 0 || e.Pending() != 0 {
		t.Fatalf("liveSlots=%d Pending=%d after drain, want 0/0", e.liveSlots(), e.Pending())
	}
}

// TestWheelExactBoundaryTicks pins the capacity edges: delta 64 ticks is
// the level-0 wrap slot, 64+1 the first level-1 entry, and so on. Each
// must fire exactly once at exactly its instant.
func TestWheelExactBoundaryTicks(t *testing.T) {
	ticks := []int64{1, 63, 64, 65, 4095, 4096, 4097, 262143, 262144, 262145}
	e := New()
	hits := make(map[int64]int)
	for _, tk := range ticks {
		tk := tk
		at := Time(tk << wheelTickShift)
		e.At(at, func() {
			if e.Now() != at {
				t.Fatalf("tick %d fired at %v, want %v", tk, e.Now(), at)
			}
			hits[tk]++
		})
	}
	e.Run()
	for _, tk := range ticks {
		if hits[tk] != 1 {
			t.Fatalf("tick %d fired %d times, want 1", tk, hits[tk])
		}
	}
}

// TestWheelTiesAcrossResidency schedules same-instant events that travel
// via the heap (same tick as now), level 0, and a cascade from level 1 —
// arriving from different residencies they must still fire in seq order.
func TestWheelTiesAcrossResidency(t *testing.T) {
	e := New()
	at := Time(100 << wheelTickShift) // level 1 territory from t=0
	var order []int
	e.At(at, func() { order = append(order, 0) }) // inserted at level 1
	// Advance near the deadline so the next insert lands in level 0.
	e.At(Time(90<<wheelTickShift), func() {
		e.At(at, func() { order = append(order, 1) })
	})
	// And from the same tick, straight to the heap.
	e.At(at-1, func() {
		e.At(at, func() { order = append(order, 2) })
	})
	e.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("same-instant dispatch order = %v, want [0 1 2] (scheduling order)", order)
	}
}

// TestWheelRunUntilAdvancesLazily checks RunUntil with a short horizon
// does not drain the wheel: far-future events stay resident instead of
// being bulk-flushed into the heap.
func TestWheelRunUntilAdvancesLazily(t *testing.T) {
	e := New()
	for i := int64(0); i < 32; i++ {
		e.At(Time((200+i*64)<<wheelTickShift), func() {})
	}
	if e.wh.count != 32 {
		t.Fatalf("wheel count = %d before run, want 32", e.wh.count)
	}
	e.RunUntil(1 << wheelTickShift)
	if e.wh.count < 31 {
		t.Fatalf("wheel count = %d after short RunUntil, want ≥31 (lazy advance flushes at most one slot)", e.wh.count)
	}
	if e.Pending() != 32 {
		t.Fatalf("Pending = %d, want 32", e.Pending())
	}
}

// TestWheelCancelledTimersRecycleLazily checks a stopped timer parked in
// a wheel slot still returns its event slot exactly once when its
// instant passes, without firing.
func TestWheelCancelledTimersRecycleLazily(t *testing.T) {
	e := New()
	fired := false
	tm := e.AfterTimer(Duration(1000<<wheelTickShift), func() { fired = true })
	tm.Stop()
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1 (lazy cancellation keeps the entry)", e.Pending())
	}
	e.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
	if e.Recycled != 1 || e.liveSlots() != 0 {
		t.Fatalf("Recycled=%d liveSlots=%d, want 1/0", e.Recycled, e.liveSlots())
	}
}

// TestTimerHandleRecycling pins the recycle contract: once a timer's
// event is consumed, the next AfterTimer reuses the struct, and the
// whole schedule→stop→consume cycle allocates nothing at steady state.
func TestTimerHandleRecycling(t *testing.T) {
	e := New()
	fn := func() {}
	tm := e.AfterTimer(1, fn)
	e.Step()
	if !tm.Fired() {
		t.Fatal("timer should report fired before reuse")
	}
	if tm2 := e.AfterTimer(1, fn); tm2 != tm {
		t.Fatal("consumed timer handle was not recycled")
	} else if tm2.Fired() || !tm2.Active() {
		t.Fatal("recycled handle must present as a fresh timer")
	}
	e.Step()

	allocs := testing.AllocsPerRun(200, func() {
		tm := e.AfterTimer(1, fn)
		tm.Stop()
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("cancel cycle allocates %v/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(200, func() {
		e.AfterTimer(1, fn)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("fire cycle allocates %v/op, want 0", allocs)
	}
}

// TestWheelSteadyStateAllocFree checks long-horizon scheduling is also
// allocation-free once slots reach their high-water mark.
func TestWheelSteadyStateAllocFree(t *testing.T) {
	e := New()
	fn := func() {}
	d := Duration(100 << wheelTickShift) // level 1: insert + cascade + flush
	for i := 0; i < 64; i++ {
		e.After(d, fn)
		e.Step()
	}
	allocs := testing.AllocsPerRun(200, func() {
		e.After(d, fn)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("wheel steady-state scheduling allocates %v/op, want 0", allocs)
	}
}

// TestWheelCachedPickMatchesScan checks the cached flush pick against a
// fresh wheelScan after every insert and every flush of a randomized
// schedule that spans all levels, cascades and the overflow path: a known
// pick must be exactly the (level, slot, bound) a scan would return.
func TestWheelCachedPickMatchesScan(t *testing.T) {
	spans := []int64{
		wheelSlots << wheelTickShift,
		(wheelSlots * wheelSlots) << wheelTickShift,
		(wheelSlots * wheelSlots * wheelSlots * 2) << wheelTickShift,
	}
	known := 0
	check := func(seed uint64, step int, what string, e *Engine) {
		t.Helper()
		if e.wh.pickLB == 0 {
			return
		}
		known++
		lvl, slot, lb := e.wheelScan()
		if e.wh.pickLvl != lvl || e.wh.pickSlot != slot || e.wh.pickLB != lb {
			t.Fatalf("seed %d step %d after %s: cached pick (%d, %d, %d), scan (%d, %d, %d)",
				seed, step, what, e.wh.pickLvl, e.wh.pickSlot, e.wh.pickLB, lvl, slot, lb)
		}
	}
	fn := func() {}
	for seed := uint64(1); seed <= 30; seed++ {
		rng := NewRand(seed)
		e := New()
		span := spans[seed%uint64(len(spans))]
		for step := 0; step < 3000; step++ {
			switch k := rng.Intn(10); {
			case k < 6:
				empty := e.wh.count == 0
				e.At(e.Now().Add(Duration(rng.Int63n(span))), fn)
				if empty && e.wh.count == 1 && e.wh.pickLB == 0 {
					t.Fatalf("seed %d step %d: the sole resident left the pick unknown", seed, step)
				}
				check(seed, step, "insert", e)
			case k < 8:
				// One prepareWheel iteration, by hand: flush the scan's
				// slot when the heap top cannot precede it.
				if e.wh.count == 0 {
					continue
				}
				lvl, slot, lb := e.wheelScan()
				if len(e.events) > 0 && e.events[0].at < Time(lb<<wheelTickShift) {
					continue
				}
				e.flush(lvl, slot, lb)
				check(seed, step, "flush", e)
			default:
				e.Step()
				check(seed, step, "step", e)
			}
		}
	}
	if known < 10000 {
		t.Fatalf("the pick was known at only %d checks; the test no longer exercises the cache", known)
	}
}
