package wireless

import "karyon/internal/trace"

// State visits the medium's checkpoint for the record/replay trace: the
// accounting counters, the jam bursts, and every created receiver
// stream's generator state, in ascending node ID order for deterministic
// bytes. Pending frames are not part of it — checkpoints are taken at
// window barriers, after Resolve has emptied the queue, and a restore
// empties it. A restore needs the checkpoint's channel count, receivers in
// strictly ascending order, and a primed stream (see Prime) for every
// receiver the checkpoint names; anything else fails the decode.
// Barrier-only.
func (m *ShardedMedium) State(c *trace.Codec) {
	s := &m.stats
	trace.Int(c, &s.Queued)
	trace.Int(c, &s.Sent)
	trace.Int(c, &s.Deferred)
	trace.Int(c, &s.Delivered)
	trace.Int(c, &s.Collisions)
	trace.Int(c, &s.Losses)
	trace.Int(c, &s.Jammed)
	trace.Int(c, &s.OutOfRange)
	trace.Int(c, &s.Retries)
	// All starts, then all untils: the layout of the checkpoint format.
	if !c.LenIs(len(m.jams), "jam channel") {
		return
	}
	for i := range m.jams {
		trace.Int(c, &m.jams[i].Start)
	}
	if !c.LenIs(len(m.jams), "jam channel") {
		return
	}
	for i := range m.jams {
		trace.Int(c, &m.jams[i].Until)
	}
	live := 0
	for _, ok := range m.live {
		if ok {
			live++
		}
	}
	id, prev := NodeID(-1), NodeID(-1)
	for range c.Len(live, 16) {
		var state uint64
		if !c.Decoding() {
			// The next live receiver.
			for id++; !m.live[id]; id++ {
			}
			state = m.rx[id].State()
		}
		trace.Int(c, &id)
		c.U64(&state)
		if !c.Decoding() {
			continue
		}
		switch {
		case id <= prev:
			c.Fail("receiver %d after %d", id, prev)
			return
		case int(id) >= len(m.rx) || !m.live[id]:
			c.Fail("receiver %d has no loss stream", id)
			return
		}
		m.rx[id].Restore(state)
		prev = id
	}
	if c.Decoding() {
		m.pending = m.pending[:0]
	}
}
