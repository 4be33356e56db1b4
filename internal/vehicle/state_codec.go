package vehicle

import "karyon/internal/trace"

// State visits the maneuver's full state (including the unexported
// activity flag), for the record/replay trace checkpoints.
func (m *Maneuver) State(c *trace.Codec) {
	trace.Int(c, &m.TargetLane)
	c.F64(&m.Progress)
	c.F64(&m.Duration)
	c.Bool(&m.active)
	trace.Int(c, &m.Aborts)
	trace.Int(c, &m.Completions)
}
