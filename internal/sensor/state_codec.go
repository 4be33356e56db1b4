package sensor

import (
	"errors"
	"slices"

	"karyon/internal/trace"
)

// Checkpoint codecs for the record/replay trace: each State method visits
// the live object's mutable state in a fixed order, writing it or
// restoring it. Encoding must be a pure function of the state (no map
// iteration, no addresses) so identical states always produce identical
// bytes. A restore goes into an already constructed object and treats its
// input as hostile: anything the object's structure cannot take fails the
// decode.

// State visits the transducer's stuck-at latch. The noise stream is owned
// and checkpointed by the entity that constructed the sensor; fault
// episodes come only from fault campaigns, which a recording refuses, so
// they are not part of it.
func (p *Physical) State(c *trace.Codec) {
	c.F64(&p.stuck)
	c.Bool(&p.stuckSet)
}

func (r *Reading) state(c *trace.Codec) {
	c.F64(&r.Value)
	trace.Int(c, &r.Time)
	c.F64(&r.Validity)
	c.Str(&r.Source)
}

// State visits the unit's history window, oldest reading first, and last
// verdicts. A restore refills the ring at head 0, sized once; the history
// may not outgrow the unit's window, and there must be one verdict per
// detector. The restored readings, which all name the same source, share
// one source string.
func (fm *FaultManagement) State(c *trace.Codec) {
	h := &fm.hist
	n := c.Len(h.Len(), 25)
	var held string
	if c.Decoding() {
		if n > h.size {
			c.Fail("history of %d readings exceeds the window of %d", n, h.size)
			return
		}
		if len(h.buf) > 0 {
			held = h.buf[0].Source
		}
		h.buf, h.head = slices.Grow(h.buf[:0], n)[:n], 0
	}
	for i := range h.buf {
		r := &h.buf[(h.head+i)%len(h.buf)]
		if c.Decoding() {
			r.Source = held
		}
		r.state(c)
		held = r.Source
	}
	if c.LenIs(len(fm.lastVerdicts), "verdict") {
		for i := range fm.lastVerdicts {
			v := &fm.lastVerdicts[i]
			c.F64(&v.Validity)
			c.Bool(&v.Dominant)
		}
	}
	c.Bool(&fm.assessed)
}

// lastErr tags: fusion errors are either nil, the sentinel ErrNoData, or
// an ad-hoc message — encode accordingly so a decoded checkpoint keeps
// errors.Is(err, ErrNoData) working.
const (
	errTagNil uint8 = iota
	errTagNoData
	errTagOther
)

// State visits the fused sensor's filter, last error and suspects. The
// inputs' own state is visited separately, through their Physical and
// FaultManagement parts.
func (rs *Reliable) State(c *trace.Codec) {
	f := rs.filter
	c.F64(&f.Alpha)
	c.F64(&f.Gate)
	c.F64(&f.est)
	c.Bool(&f.started)
	trace.Int(c, &f.accepted)
	trace.Int(c, &f.rejected)
	tag, msg := errTagNil, ""
	switch {
	case c.Decoding(), rs.lastErr == nil: // read below, or errTagNil
	case errors.Is(rs.lastErr, ErrNoData):
		tag = errTagNoData
	default:
		tag, msg = errTagOther, rs.lastErr.Error()
	}
	c.U8(&tag)
	if tag == errTagOther {
		c.Str(&msg)
	}
	if c.Decoding() {
		switch tag {
		case errTagNil:
			rs.lastErr = nil
		case errTagNoData:
			rs.lastErr = ErrNoData
		case errTagOther:
			rs.lastErr = errors.New(msg)
		default:
			c.Fail("unknown error tag %d", tag)
		}
	}
	n := c.Len(len(rs.suspects), 4)
	if c.Decoding() {
		rs.suspects = slices.Grow(rs.suspects[:0], n)[:n]
	}
	for i := range rs.suspects {
		c.Str(&rs.suspects[i])
	}
}
