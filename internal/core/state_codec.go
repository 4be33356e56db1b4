package core

import "karyon/internal/trace"

// Checkpoint codecs for the safety kernel: everything the manager, its
// functionalities, the runtime-information store and the actuation gate
// mutate during control cycles. Design-time structure (rules, envelopes,
// level counts) is immutable after construction and is not encoded; a
// restore goes into a manager built with the same structure and fails on
// input that does not fit it.

// State visits the manager's cycle count, every functionality's level
// bookkeeping and switch count, and the runtime indicators. The latest
// switch is output only and is not encoded.
func (m *Manager) State(c *trace.Codec) {
	trace.Int(c, &m.Cycles)
	if !c.LenIs(len(m.ordered), "functionality") {
		return
	}
	for _, f := range m.ordered {
		trace.Int(c, &f.current)
		trace.Int(c, &f.upStreak)
		trace.Int(c, &f.Switches)
		trace.Int(c, &f.enteredAt)
		if !c.LenIs(f.d.levels, "time-at-level") {
			return
		}
		for l := 1; l <= f.d.levels; l++ {
			trace.Int(c, &f.timeAt[l])
		}
		if !c.Decoding() {
			continue
		}
		switch {
		case f.current < LevelSafe || int(f.current) > f.d.levels:
			c.Fail("functionality %q at level %d outside 1..%d", f.d.name, f.current, f.d.levels)
			return
		case f.Switches < 0:
			c.Fail("functionality %q has %d switches", f.d.name, f.Switches)
			return
		}
	}
	m.ri.state(c)
}

// state visits the indicators sorted by key, whatever slot they sit in:
// the same logical state always encodes to the same bytes. A restore drops
// the indicators set since the checkpoint and requires strictly ascending
// keys; a key the table has takes its slot without allocating its name.
func (ri *RuntimeInfo) state(c *trace.Codec) {
	var buf [8]string
	var keys []string
	if c.Decoding() {
		ri.clear()
	} else {
		keys = ri.appendKeys(buf[:0])
	}
	n := c.Len(len(keys), 20)
	var prev []byte
	for i := range n {
		var key []byte
		var ind Indicator
		if d := c.Dec(); d != nil {
			key = d.Blob()
		} else {
			ind, _ = ri.Get(keys[i])
			c.Str(&keys[i])
		}
		c.F64(&ind.Value)
		trace.Int(c, &ind.UpdatedAt)
		if !c.Decoding() {
			continue
		}
		if i > 0 && string(key) <= string(prev) {
			c.Fail("indicator %q after %q", key, prev)
			return
		}
		prev = key
		if slot, ok := ri.keys.slot[string(key)]; ok {
			ri.store(slot, "", ind)
		} else {
			k := string(key)
			ri.store(ri.keys.intern(k), k, ind)
		}
	}
}

// State visits the gate's counters.
func (g *Gate) State(c *trace.Codec) {
	trace.Int(c, &g.Clamped)
	trace.Int(c, &g.Passed)
}
