// Package coord implements KARYON's reliable assessment of cooperation
// state (paper Sec. V-C): dissemination of validity/age-annotated
// cooperative vehicle state, a maneuver-reservation agreement protocol in
// the spirit of Le Lann's cohort/group primitives [24] (used for
// coordinated lane changes), and virtual nodes — timed virtual stationary
// automata [10, 11] — that replicate a region-bound state machine over the
// vehicles present in the region (used for the virtual traffic light).
package coord

import (
	"sort"

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

// StateTable tracks the latest cooperative state heard from each peer.
type StateTable struct {
	clock sim.Clock
	// MaxAge bounds how old an entry may be before it is reported stale.
	maxAge sim.Time
	m      map[wireless.NodeID]CoopState
}

// NewStateTable creates a table treating entries older than maxAge as gone.
// The clock is usually the kernel; a sharded world passes the owning
// entity's clock so freshness stays correct across shard handoffs.
func NewStateTable(clock sim.Clock, maxAge sim.Time) *StateTable {
	return &StateTable{clock: clock, maxAge: maxAge, m: make(map[wireless.NodeID]CoopState)}
}

// Update records a heard state (keeping only the newest per peer).
func (t *StateTable) Update(s CoopState) {
	if prev, ok := t.m[s.ID]; ok && prev.Time > s.Time {
		return
	}
	t.m[s.ID] = s
}

// StateTableState is a checkpoint of the table's entries (for
// record/replay checkpoints); storage is reused across Save calls.
type StateTableState struct {
	entries []CoopState
}

// SaveState checkpoints the table into st (pass nil to allocate) and
// returns it.
func (t *StateTable) SaveState(st *StateTableState) *StateTableState {
	if st == nil {
		st = &StateTableState{}
	}
	st.entries = st.entries[:0]
	for _, s := range t.m {
		st.entries = append(st.entries, s)
	}
	return st
}

// RestoreState rewinds the table to a SaveState checkpoint.
func (t *StateTable) RestoreState(st *StateTableState) {
	clear(t.m)
	for _, s := range st.entries {
		t.m[s.ID] = s
	}
}

// Get returns the peer's state if present and fresh.
func (t *StateTable) Get(id wireless.NodeID) (CoopState, bool) {
	s, ok := t.m[id]
	if !ok || t.clock.Now()-s.Time > t.maxAge {
		return CoopState{}, false
	}
	return s, true
}

// Fresh returns all fresh states sorted by id.
func (t *StateTable) Fresh() []CoopState {
	now := t.clock.Now()
	out := make([]CoopState, 0, len(t.m))
	for _, s := range t.m {
		if now-s.Time <= t.maxAge {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Scope returns the ids of fresh peers within radius of pos — the paper's
// "scope for the realization of cooperative functionality".
func (t *StateTable) Scope(pos wireless.Position, radius float64) []wireless.NodeID {
	out := make([]wireless.NodeID, 0, len(t.m))
	for _, s := range t.Fresh() {
		if s.Pos.Distance(pos) <= radius {
			out = append(out, s.ID)
		}
	}
	return out
}

// MinValidity returns the lowest validity among fresh states in scope, and
// 0 when the scope is empty — feeding the safety kernel's "health of ...
// the vehicles in front" indicator.
func (t *StateTable) MinValidity(pos wireless.Position, radius float64) float64 {
	min := 1.0
	n := 0
	for _, s := range t.Fresh() {
		if s.Pos.Distance(pos) <= radius {
			n++
			if s.Validity < min {
				min = s.Validity
			}
		}
	}
	if n == 0 {
		return 0
	}
	return min
}
