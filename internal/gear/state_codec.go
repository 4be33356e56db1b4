package gear

import "karyon/internal/trace"

// State visits the estimator's full state (gains and filter memory), for
// the record/replay trace checkpoints.
func (le *LeadEstimator) State(c *trace.Codec) {
	c.F64(&le.Alpha)
	c.F64(&le.Beta)
	c.F64(&le.MinValidity)
	trace.Int(c, &le.lastAt)
	c.F64(&le.lastGap)
	c.F64(&le.relSpeed)
	c.F64(&le.leadSpeed)
	c.F64(&le.leadAccel)
	trace.Int(c, &le.samples)
}
