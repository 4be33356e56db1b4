package wireless

import "karyon/internal/sim"

// Burst is one jam burst, the interval [Start, Until) in which a channel
// is inaccessible — the external interference behind the paper's
// network-inaccessibility periods (Sec. V-A1). Every jam in the
// simulator, on either medium and in either world, is kept as a Burst.
type Burst struct {
	Start sim.Time
	Until sim.Time
}

// Extend jams [now, now+d): a jam extends a live burst, or starts a new
// one once the last has ended. It never shortens a burst, and it reports
// whether it started a new one. Jams arrive in time order, so a burst's
// Start never lies after now.
func (b *Burst) Extend(now, d sim.Time) (started bool) {
	if now >= b.Until {
		b.Start, started = now, true
	}
	if until := now + d; until > b.Until {
		b.Until = until
	}
	return started
}

// Covers reports whether instant t lies inside the burst.
func (b Burst) Covers(t sim.Time) bool { return t >= b.Start && t < b.Until }

// Overlaps reports whether the airtime [start, end) intersects the burst.
// An empty burst (a zero-duration jam) overlaps nothing.
func (b Burst) Overlaps(start, end sim.Time) bool {
	return b.Start < b.Until && b.Start < end && b.Until > start
}
