package coord

import (
	"slices"

	"karyon/internal/trace"
)

// Checkpoint codecs for the cooperation layer. Every State method visits
// the live object in a fixed order — the state table by sender, the
// reservations by name — so the same logical state always encodes to the
// same bytes, and a restore requires that order back.

// State visits the table's states in sender order; the accelerations are
// visited separately, by AccelState. A restore replaces the entries, which
// must name each sender once, in ascending order, and sizes the table
// once; an intent equal to the one before it shares that one's string.
func (t *StateTable) State(c *trace.Codec) {
	var held string
	n := c.Len(len(t.peers), 64)
	if c.Decoding() {
		if len(t.peers) > 0 {
			held = t.peers[0].state.Intent
		}
		t.peers = slices.Grow(t.peers[:0], n)[:n]
	}
	for i := range t.peers {
		s := &t.peers[i].state
		trace.Int(c, &s.ID)
		c.F64(&s.Pos.X)
		c.F64(&s.Pos.Y)
		c.F64(&s.Pos.Z)
		c.F64(&s.Speed)
		trace.Int(c, &s.Lane)
		if c.Decoding() {
			s.Intent = held
		}
		c.Str(&s.Intent)
		held = s.Intent
		trace.Int(c, &s.Time)
		c.F64(&s.Validity)
		if c.Decoding() && i > 0 && t.peers[i-1].state.ID >= s.ID {
			c.Fail("state table sender %d after %d", s.ID, t.peers[i-1].state.ID)
			return
		}
	}
}

// AccelState visits the peers' accelerations in sender order: a count,
// then each sender's id and acceleration. Every delivered beacon writes a
// state and an acceleration, so a restore requires exactly the senders
// State restored, in the same order.
func (t *StateTable) AccelState(c *trace.Codec) {
	if !c.LenIs(len(t.peers), "acceleration") {
		return
	}
	for i := range t.peers {
		p := &t.peers[i]
		id := p.state.ID
		trace.Int(c, &id)
		if c.Decoding() && id != p.state.ID {
			c.Fail("acceleration from sender %d, want %d", id, p.state.ID)
			return
		}
		c.F64(&p.accel)
	}
}

// State visits the full reservation table, sorted by resource name; a
// restore replaces the table and requires strictly ascending names.
// Barrier-only, like every Reservations method.
func (r *Reservations) State(c *trace.Codec) {
	var keys []Resource
	if c.Decoding() {
		if r.held == nil {
			r.held = map[Resource]reservation{}
		}
		clear(r.held)
	} else {
		keys = make([]Resource, 0, len(r.held))
		for k := range r.held {
			keys = append(keys, k)
		}
		slices.Sort(keys)
	}
	n := c.Len(len(keys), 20)
	var prev Resource
	for i := range n {
		var k Resource
		var v reservation
		if !c.Decoding() {
			k = keys[i]
			v = r.held[k]
		}
		c.Str((*string)(&k))
		trace.Int(c, &v.owner)
		trace.Int(c, &v.expires)
		if c.Decoding() {
			if i > 0 && k <= prev {
				c.Fail("reservation %q after %q", k, prev)
				return
			}
			r.held[k] = v
		}
		prev = k
	}
}
