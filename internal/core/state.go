package core

import "karyon/internal/sim"

// This file implements checkpoint/restore for the safety kernel — the
// per-car state a record/replay checkpoint captures (see saveCar in
// internal/world/record.go). Everything the manager, its
// functionalities, the runtime-information store and the actuation gate
// mutate during control cycles is captured; design-time structure (rules,
// envelopes, levels) is immutable after construction and is not.

// functionalityState is one functionality's mutable state.
type functionalityState struct {
	current   LoS
	upStreak  int
	switches  int // length of the append-only Switches log
	timeAt    []sim.Time
	enteredAt sim.Time
}

// riEntry is one saved runtime indicator.
type riEntry struct {
	key string
	ind Indicator
}

// ManagerState is a checkpoint of a manager, its functionalities and its
// runtime-information store; storage is reused across Save calls.
type ManagerState struct {
	cycles int64
	fns    []functionalityState
	ri     []riEntry
}

// SaveState checkpoints the manager into st (pass nil to allocate) and
// returns it.
func (m *Manager) SaveState(st *ManagerState) *ManagerState {
	if st == nil {
		st = &ManagerState{}
	}
	st.cycles = m.Cycles
	if cap(st.fns) < len(m.ordered) {
		st.fns = make([]functionalityState, len(m.ordered))
	}
	st.fns = st.fns[:len(m.ordered)]
	for i, f := range m.ordered {
		fs := &st.fns[i]
		fs.current = f.current
		fs.upStreak = f.upStreak
		fs.switches = len(f.Switches)
		fs.enteredAt = f.enteredAt
		fs.timeAt = fs.timeAt[:0]
		for l := LoS(1); int(l) <= f.levels; l++ {
			fs.timeAt = append(fs.timeAt, f.timeAt[l])
		}
	}
	st.ri = st.ri[:0]
	for k, ind := range m.ri.m {
		st.ri = append(st.ri, riEntry{key: k, ind: ind})
	}
	return st
}

// RestoreState rewinds the manager to a SaveState checkpoint. The
// Switches log is append-only between checkpoints, so restoring truncates
// it; runtime indicators recorded since the checkpoint are dropped.
func (m *Manager) RestoreState(st *ManagerState) {
	m.Cycles = st.cycles
	for i, f := range m.ordered {
		fs := &st.fns[i]
		f.current = fs.current
		f.upStreak = fs.upStreak
		// In-process restore truncates the append-only Switches log back
		// to the checkpoint. A checkpoint decoded from a trace restores
		// into a freshly built manager whose log is shorter than the
		// recorded length; the entries are gone (only their count
		// mattered to the checkpoint), so restore what is representable
		// instead of slicing out of range.
		if fs.switches <= len(f.Switches) {
			f.Switches = f.Switches[:fs.switches]
		}
		f.enteredAt = fs.enteredAt
		for l := LoS(1); int(l) <= f.levels; l++ {
			f.timeAt[l] = fs.timeAt[int(l)-1]
		}
	}
	clear(m.ri.m)
	for _, e := range st.ri {
		m.ri.m[e.key] = e.ind
	}
}

// GateState is a checkpoint of the actuation gate's counters.
type GateState struct {
	clamped int64
	passed  int64
}

// SaveState checkpoints the gate.
func (g *Gate) SaveState() GateState {
	return GateState{clamped: g.Clamped, passed: g.Passed}
}

// RestoreState rewinds the gate to a SaveState checkpoint.
func (g *Gate) RestoreState(st GateState) {
	g.Clamped = st.clamped
	g.Passed = st.passed
}
