package wireless

import (
	"karyon/internal/sim"
	"karyon/internal/trace"
)

// EncodeState appends the medium's checkpoint to e for the record/replay
// trace: the accounting counters, the jam bursts, and every created
// receiver stream's generator state, in node ID order for deterministic
// bytes. Pending frames are not part of it — checkpoints are taken at
// window barriers, after Resolve has emptied the queue. Barrier-only.
func (m *ShardedMedium) EncodeState(e *trace.Enc) {
	e.I64(m.stats.Queued)
	e.I64(m.stats.Sent)
	e.I64(m.stats.Deferred)
	e.I64(m.stats.Delivered)
	e.I64(m.stats.Collisions)
	e.I64(m.stats.Losses)
	e.I64(m.stats.Jammed)
	e.I64(m.stats.OutOfRange)
	e.I64(m.stats.Retries)
	// All starts, then all untils: the layout of the checkpoint format.
	e.U32(uint32(len(m.jams)))
	for _, b := range m.jams {
		e.I64(int64(b.Start))
	}
	e.U32(uint32(len(m.jams)))
	for _, b := range m.jams {
		e.I64(int64(b.Until))
	}
	n := 0
	for _, live := range m.live {
		if live {
			n++
		}
	}
	e.U32(uint32(n))
	for id, live := range m.live {
		if live {
			e.I64(int64(id))
			e.U64(m.rx[id].State())
		}
	}
}

// DecodeState restores a checkpoint written by EncodeState and empties the
// frame queue. The medium must have the checkpoint's channel count and a
// primed stream (see Prime) for every receiver the checkpoint names; a
// receiver without one fails the decode. Barrier-only.
func (m *ShardedMedium) DecodeState(d *trace.Dec) {
	m.stats.Queued = d.I64()
	m.stats.Sent = d.I64()
	m.stats.Deferred = d.I64()
	m.stats.Delivered = d.I64()
	m.stats.Collisions = d.I64()
	m.stats.Losses = d.I64()
	m.stats.Jammed = d.I64()
	m.stats.OutOfRange = d.I64()
	m.stats.Retries = d.I64()
	if !d.CountIs(len(m.jams), "jam channel") {
		return
	}
	for i := range m.jams {
		m.jams[i].Start = sim.Time(d.I64())
	}
	if !d.CountIs(len(m.jams), "jam channel") {
		return
	}
	for i := range m.jams {
		m.jams[i].Until = sim.Time(d.I64())
	}
	for i, n := 0, d.Count(16); i < n && d.Err() == nil; i++ {
		id := d.I64()
		state := d.U64()
		if id < 0 || id >= int64(len(m.rx)) || !m.live[id] {
			d.Fail("receiver %d has no loss stream", id)
			return
		}
		m.rx[id].Restore(state)
	}
	m.pending = m.pending[:0]
}
