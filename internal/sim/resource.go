package sim

// FIFORes models a resource that admits one holder at a time and grants
// waiters in arrival order — the spinlock around an NVMe submission queue's
// tail. Because the simulation is single-threaded, "waiting" is expressed
// as a computed grant time rather than actual blocking: the caller learns
// when it would have acquired the resource and charges that wait to
// whatever it models (e.g. CPU busy time).
type FIFORes struct {
	freeAt Time

	// TotalWait is the cumulative wait over every acquisition — the
	// in-lock time that feeds NSQ merits.
	TotalWait Duration
}

// Acquire requests the resource at instant now for hold time hold. It
// returns the instant the resource is granted and the wait endured
// (grant - now). hold must be non-negative.
func (r *FIFORes) Acquire(now Time, hold Duration) (grant Time, wait Duration) {
	if hold < 0 {
		panic("sim: negative hold time")
	}
	grant = Acquire(&r.freeAt, now, hold)
	wait = grant.Sub(now)
	r.TotalWait += wait
	return grant, wait
}

// Acquire is the FIFO grant rule on a bare busy horizon: a holder arriving
// at now is granted at max(now, *free) and keeps the resource for hold, so
// *free moves to grant + hold. Holders that need no wait accounting (the
// flash dies and channel buses) keep a plain Time and call it directly.
//
//ddvet:hotpath
func Acquire(free *Time, now Time, hold Duration) Time {
	g := MaxTime(now, *free)
	*free = g.Add(hold)
	return g
}

// FreeAt reports when the resource next becomes free.
func (r *FIFORes) FreeAt() Time { return r.freeAt }

// Busy reports whether the resource is held at instant now.
func (r *FIFORes) Busy(now Time) bool { return r.freeAt > now }
