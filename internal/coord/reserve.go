package coord

import "karyon/internal/sim"

// Reservations is the snapshot/barrier-era counterpart of the radio
// Agreement protocol: a region-reservation table whose requests and
// releases are processed at a sharded world's single-threaded window
// barrier, in a fixed deterministic order (the world iterates requesters in
// entity-id order). It upholds the same safety invariant — at most one
// holder per resource at any time — without any wire protocol: the barrier
// *is* the agreement round, with a bounded decision latency of one
// synchronization window.
//
// The radio Agreement remains the right tool when there is no barrier to
// lean on (single-kernel protocol studies, cohort formation); Reservations
// is what the partitioned worlds use so the outcome is a pure function of
// (seed, config), independent of the shard count.
type Reservations struct {
	held map[Resource]reservation
}

type reservation struct {
	owner   int64
	expires sim.Time
}

// NewReservations creates an empty table.
func NewReservations() *Reservations {
	return &Reservations{held: make(map[Resource]reservation)}
}

// Acquire grants r to owner until expires, unless another owner holds a
// live reservation. Re-acquiring by the current holder extends the expiry.
// It reports whether the grant was given.
func (t *Reservations) Acquire(r Resource, owner int64, now, expires sim.Time) bool {
	if g, ok := t.held[r]; ok && g.owner != owner && now < g.expires {
		return false
	}
	t.held[r] = reservation{owner: owner, expires: expires}
	return true
}

// Release drops owner's reservation of r; a release by a non-holder is
// ignored (it raced with an expiry takeover).
func (t *Reservations) Release(r Resource, owner int64) {
	if g, ok := t.held[r]; ok && g.owner == owner {
		delete(t.held, r)
	}
}

// Holder returns the live holder of r at now.
func (t *Reservations) Holder(r Resource, now sim.Time) (int64, bool) {
	g, ok := t.held[r]
	if !ok || now >= g.expires {
		return 0, false
	}
	return g.owner, true
}
