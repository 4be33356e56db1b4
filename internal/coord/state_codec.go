package coord

import (
	"slices"
	"sort"

	"karyon/internal/sim"
	"karyon/internal/trace"
	"karyon/internal/wireless"
)

// Checkpoint codecs for the cooperation layer. Every encoder writes in a
// fixed order — the state table by sender, the reservations by name — so
// the same logical state always encodes to the same bytes.

// EncodeState appends the table's states to e in sender order. The
// accelerations are written separately, by EncodeAccels.
func (t *StateTable) EncodeState(e *trace.Enc) {
	e.U32(uint32(len(t.peers)))
	for i := range t.peers {
		c := &t.peers[i].state
		e.I64(int64(c.ID))
		e.F64(c.Pos.X)
		e.F64(c.Pos.Y)
		e.F64(c.Pos.Z)
		e.F64(c.Speed)
		e.I64(int64(c.Lane))
		e.Str(c.Intent)
		e.I64(int64(c.Time))
		e.F64(c.Validity)
	}
}

// DecodeState replaces the table's entries with the states written by
// EncodeState, which must name each sender once, in ascending order. The
// accelerations stay zero until DecodeAccels. The table is sized once, and
// an intent equal to the one before it shares that one's string.
func (t *StateTable) DecodeState(d *trace.Dec) {
	var held string
	if len(t.peers) > 0 {
		held = t.peers[0].state.Intent
	}
	n := d.Count(64)
	t.peers = slices.Grow(t.peers[:0], n)
	for i := 0; i < n && d.Err() == nil; i++ {
		var c CoopState
		c.ID = wireless.NodeID(d.I64())
		c.Pos.X = d.F64()
		c.Pos.Y = d.F64()
		c.Pos.Z = d.F64()
		c.Speed = d.F64()
		c.Lane = int(d.I64())
		c.Intent = d.StrReuse(held)
		held = c.Intent
		c.Time = sim.Time(d.I64())
		c.Validity = d.F64()
		if k := len(t.peers); k > 0 && t.peers[k-1].state.ID >= c.ID {
			d.Fail("state table sender %d after %d", c.ID, t.peers[k-1].state.ID)
			return
		}
		t.peers = append(t.peers, peer{state: c})
	}
}

// EncodeAccels appends the peers' accelerations to e in sender order: a
// count, then each sender's id and acceleration.
func (t *StateTable) EncodeAccels(e *trace.Enc) {
	e.U32(uint32(len(t.peers)))
	for i := range t.peers {
		e.I64(int64(t.peers[i].state.ID))
		e.F64(t.peers[i].accel)
	}
}

// DecodeAccels restores the accelerations written by EncodeAccels. Every
// delivered beacon writes a state and an acceleration, so they must name
// exactly the senders DecodeState restored, in the same order.
func (t *StateTable) DecodeAccels(d *trace.Dec) {
	if !d.CountIs(len(t.peers), "acceleration") {
		return
	}
	for i := range t.peers {
		id := wireless.NodeID(d.I64())
		if d.Err() == nil && id != t.peers[i].state.ID {
			d.Fail("acceleration from sender %d, want %d", id, t.peers[i].state.ID)
			return
		}
		t.peers[i].accel = d.F64()
	}
}

// EncodeState appends the full reservation table to e, sorted by
// resource name. Barrier-only, like every Reservations method.
func (r *Reservations) EncodeState(e *trace.Enc) {
	keys := make([]string, 0, len(r.held))
	for res := range r.held {
		keys = append(keys, string(res))
	}
	sort.Strings(keys)
	e.U32(uint32(len(keys)))
	for _, k := range keys {
		v := r.held[Resource(k)]
		e.Str(k)
		e.I64(v.owner)
		e.I64(int64(v.expires))
	}
}

// DecodeState replaces the reservation table with one written by
// EncodeState.
func (r *Reservations) DecodeState(d *trace.Dec) {
	if r.held == nil {
		r.held = map[Resource]reservation{}
	}
	clear(r.held)
	for i, n := 0, d.Count(20); i < n && d.Err() == nil; i++ {
		k := d.Str()
		r.held[Resource(k)] = reservation{owner: d.I64(), expires: sim.Time(d.I64())}
	}
}
