package core

import (
	"karyon/internal/sim"
	"karyon/internal/trace"
)

// Checkpoint codecs for the safety kernel: everything the manager, its
// functionalities, the runtime-information store and the actuation gate
// mutate during control cycles. Design-time structure (rules, envelopes,
// level counts) is immutable after construction and is not encoded; a
// decoder restores into a manager built with the same structure and
// fails on input that does not fit it. The runtime indicators encode
// sorted by key, whatever slot they sit in: the same logical state always
// encodes to the same bytes.

// EncodeState appends the manager's cycle count, every functionality's
// level bookkeeping and the runtime indicators to e. Of the append-only
// Switches log only the length is encoded.
func (m *Manager) EncodeState(e *trace.Enc) {
	e.I64(m.Cycles)
	e.U32(uint32(len(m.ordered)))
	for _, f := range m.ordered {
		e.I64(int64(f.current))
		e.I64(int64(f.upStreak))
		e.I64(int64(len(f.Switches)))
		e.I64(int64(f.enteredAt))
		e.U32(uint32(f.d.levels))
		for l := LoS(1); int(l) <= f.d.levels; l++ {
			e.I64(int64(f.timeAt[l]))
		}
	}
	var buf [8]string
	keys := m.ri.appendKeys(buf[:0])
	e.U32(uint32(len(keys)))
	for _, k := range keys {
		ind, _ := m.ri.Get(k)
		e.Str(k)
		e.F64(ind.Value)
		e.I64(int64(ind.UpdatedAt))
	}
}

// DecodeState restores state written by EncodeState. The Switches log is
// truncated back to the encoded length; a freshly built manager's log is
// shorter than that and is left as it is, because the entries themselves
// are not in the checkpoint. Runtime indicators set since the checkpoint
// are dropped.
func (m *Manager) DecodeState(d *trace.Dec) {
	m.Cycles = d.I64()
	if !d.CountIs(len(m.ordered), "functionality") {
		return
	}
	for _, f := range m.ordered {
		f.current = LoS(d.I64())
		f.upStreak = int(d.I64())
		switches := d.I64()
		f.enteredAt = sim.Time(d.I64())
		if !d.CountIs(f.d.levels, "time-at-level") {
			return
		}
		for l := LoS(1); int(l) <= f.d.levels; l++ {
			f.timeAt[l] = sim.Time(d.I64())
		}
		switch {
		case f.current < LevelSafe || int(f.current) > f.d.levels:
			d.Fail("functionality %q at level %d outside 1..%d", f.d.name, f.current, f.d.levels)
			return
		case switches < 0:
			d.Fail("functionality %q has %d switches", f.d.name, switches)
			return
		case switches <= int64(len(f.Switches)):
			f.Switches = f.Switches[:switches]
		}
	}
	ri := m.ri
	ri.clear()
	for i, n := 0, d.Count(20); i < n && d.Err() == nil; i++ {
		b := d.Blob()
		ind := Indicator{Value: d.F64(), UpdatedAt: sim.Time(d.I64())}
		// A key the table has takes its slot without allocating its name.
		if slot, ok := ri.keys.slot[string(b)]; ok {
			ri.store(slot, "", ind)
		} else {
			key := string(b)
			ri.store(ri.keys.intern(key), key, ind)
		}
	}
}

// EncodeState appends the gate's counters to e.
func (g *Gate) EncodeState(e *trace.Enc) {
	e.I64(g.Clamped)
	e.I64(g.Passed)
}

// DecodeState restores state written by EncodeState.
func (g *Gate) DecodeState(d *trace.Dec) {
	g.Clamped = d.I64()
	g.Passed = d.I64()
}
