// Package coord implements KARYON's reliable assessment of cooperation
// state (paper Sec. V-C): dissemination of validity/age-annotated
// cooperative vehicle state, a maneuver-reservation agreement protocol in
// the spirit of Le Lann's cohort/group primitives [24] (used for
// coordinated lane changes), and virtual nodes — timed virtual stationary
// automata [10, 11] — that replicate a region-bound state machine over the
// vehicles present in the region (used for the virtual traffic light).
package coord

import (
	"slices"

	"karyon/internal/sim"
	"karyon/internal/wireless"
)

// CoopState is one vehicle's broadcast cooperative state: where it is,
// how fast, and what it intends — plus the data-centric quality metadata
// (timestamp and validity) KARYON attaches to all remote information.
type CoopState struct {
	ID    wireless.NodeID
	Pos   wireless.Position
	Speed float64
	Lane  int
	// Intent is a free-form label ("cruise", "lane-change-left", ...).
	Intent string
	// Time is the state's acquisition instant at the sender.
	Time sim.Time
	// Validity is the sender's own confidence in this state (from its
	// sensor pipeline).
	Validity float64
}

// StateTable tracks the latest cooperative state heard from each peer,
// together with the acceleration the peer's last delivered beacon
// carried. The peers sit in one slice sorted by sender id and are updated
// in place: a receiver hears only its radio neighbours, so the slice stays
// short. Beacons arrive in batches (Merge), one per receiver and window,
// and a batch costs one binary search per beacon and no allocation once
// the neighbours are known.
type StateTable struct {
	clock sim.Clock
	// MaxAge bounds how old an entry may be before it is reported stale.
	maxAge sim.Time
	peers  []peer
}

// peer is one sender's entry in a StateTable.
type peer struct {
	state CoopState
	accel float64
}

// NewStateTable creates a table treating entries older than maxAge as gone.
// The clock is usually the kernel; a sharded world passes the owning
// entity's clock so freshness stays correct across shard handoffs.
func NewStateTable(clock sim.Clock, maxAge sim.Time) *StateTable {
	return &StateTable{clock: clock, maxAge: maxAge}
}

// find returns the index of id's entry, or where it would be inserted.
func (t *StateTable) find(id wireless.NodeID) (int, bool) {
	lo, hi := 0, len(t.peers)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.peers[mid].state.ID < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(t.peers) && t.peers[lo].state.ID == id
}

// Heard is one delivered beacon awaiting a batched table write: the
// sender's id, its state and the acceleration the beacon carried. Merge
// looks the sender up by ID, and reads the state through the pointer only
// to take it, so the state must not change until then. ID must equal
// State.ID.
type Heard struct {
	ID    wireless.NodeID
	State *CoopState
	Accel float64
}

// Merge records a batch of heard beacons exactly as if each had been
// delivered on its own, in batch order: a peer keeps only its newest state
// (an older one is ignored), and the acceleration is the last one
// delivered, whatever its state's age. It applies the batch in arrival
// order with one search per beacon: a batch holds a receiver's dozen
// neighbours in on-air order, and sorting it first costs more than the
// searches it would save.
func (t *StateTable) Merge(batch []Heard) {
	for k := range batch {
		h := &batch[k]
		i, ok := t.find(h.ID)
		if !ok {
			t.peers = slices.Insert(t.peers, i, peer{state: *h.State})
		} else if p := &t.peers[i].state; p.Time <= h.State.Time {
			*p = *h.State
		}
		t.peers[i].accel = h.Accel
	}
}

// Get returns the peer's state if present and fresh.
func (t *StateTable) Get(id wireless.NodeID) (CoopState, bool) {
	i, ok := t.find(id)
	if !ok || t.clock.Now()-t.peers[i].state.Time > t.maxAge {
		return CoopState{}, false
	}
	return t.peers[i].state, true
}

// Accel returns the acceleration the peer's last delivered beacon carried,
// if the peer was ever heard. It does not check freshness: callers guard
// it with Get.
func (t *StateTable) Accel(id wireless.NodeID) (float64, bool) {
	i, ok := t.find(id)
	if !ok {
		return 0, false
	}
	return t.peers[i].accel, true
}
