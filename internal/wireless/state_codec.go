package wireless

import (
	"sort"

	"karyon/internal/sim"
	"karyon/internal/trace"
)

// EncodeState appends the sharded-medium checkpoint to e for the
// record/replay trace. The per-receiver stream states come out of a map,
// so the trace form sorts them by node ID for deterministic bytes.
func (st *ShardedMediumState) EncodeState(e *trace.Enc) {
	e.I64(st.stats.Queued)
	e.I64(st.stats.Sent)
	e.I64(st.stats.Deferred)
	e.I64(st.stats.Delivered)
	e.I64(st.stats.Collisions)
	e.I64(st.stats.Losses)
	e.I64(st.stats.Jammed)
	e.I64(st.stats.OutOfRange)
	e.I64(st.stats.Retries)
	e.U32(uint32(len(st.jamStart)))
	for _, t := range st.jamStart {
		e.I64(int64(t))
	}
	e.U32(uint32(len(st.jamUntil)))
	for _, t := range st.jamUntil {
		e.I64(int64(t))
	}
	ids := make([]NodeID, 0, len(st.rx))
	for id := range st.rx {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	e.U32(uint32(len(ids)))
	for _, id := range ids {
		e.I64(int64(id))
		e.U64(st.rx[id])
	}
}

// DecodeState reads a medium checkpoint written by EncodeState. The
// restore target must have its receiver streams primed (see Prime) for
// every node the checkpoint names.
func (st *ShardedMediumState) DecodeState(d *trace.Dec) {
	st.stats.Queued = d.I64()
	st.stats.Sent = d.I64()
	st.stats.Deferred = d.I64()
	st.stats.Delivered = d.I64()
	st.stats.Collisions = d.I64()
	st.stats.Losses = d.I64()
	st.stats.Jammed = d.I64()
	st.stats.OutOfRange = d.I64()
	st.stats.Retries = d.I64()
	st.jamStart = st.jamStart[:0]
	for i, n := 0, d.Count(8); i < n && d.Err() == nil; i++ {
		st.jamStart = append(st.jamStart, sim.Time(d.I64()))
	}
	st.jamUntil = st.jamUntil[:0]
	for i, n := 0, d.Count(8); i < n && d.Err() == nil; i++ {
		st.jamUntil = append(st.jamUntil, sim.Time(d.I64()))
	}
	if st.rx == nil {
		st.rx = map[NodeID]uint64{}
	}
	clear(st.rx)
	for i, n := 0, d.Count(16); i < n && d.Err() == nil; i++ {
		id := NodeID(d.I64())
		st.rx[id] = d.U64()
	}
}
