package coord

import (
	"slices"
	"sort"

	"karyon/internal/sim"
	"karyon/internal/trace"
	"karyon/internal/wireless"
)

// Checkpoint codecs for the cooperation layer. The live state sits in
// maps, so the encoders sort everything: the same logical state always
// encodes to the same bytes.

// EncodeState appends the state table's entries to e, sorted by node ID.
func (t *StateTable) EncodeState(e *trace.Enc) {
	var buf [64]wireless.NodeID
	ids := buf[:0]
	for id := range t.m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	e.U32(uint32(len(ids)))
	for _, id := range ids {
		c := t.m[id]
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

// DecodeState replaces the table's entries with ones written by
// EncodeState.
func (t *StateTable) DecodeState(d *trace.Dec) {
	clear(t.m)
	for i, n := 0, d.Count(64); i < n && d.Err() == nil; i++ {
		var c CoopState
		c.ID = wireless.NodeID(d.I64())
		c.Pos.X = d.F64()
		c.Pos.Y = d.F64()
		c.Pos.Z = d.F64()
		c.Speed = d.F64()
		c.Lane = int(d.I64())
		c.Intent = d.Str()
		c.Time = sim.Time(d.I64())
		c.Validity = d.F64()
		t.m[c.ID] = c
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
