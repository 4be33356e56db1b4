package sensor

import (
	"errors"
	"slices"

	"karyon/internal/sim"
	"karyon/internal/trace"
)

// Checkpoint codecs for the record/replay trace: each method writes or
// reads the live object's mutable state in a fixed order. Encoding must
// be a pure function of the state (no map iteration, no addresses) so
// identical states always produce identical bytes. A decoder restores
// into an already constructed object and treats its input as hostile:
// anything the object's structure cannot take fails the decode.

// EncodeState appends the transducer's stuck-at latch to e. The noise
// stream is owned and checkpointed by the entity that constructed the
// sensor; fault episodes come only from fault campaigns, which a
// recording refuses, so they are not part of it.
func (p *Physical) EncodeState(e *trace.Enc) {
	e.F64(p.stuck)
	e.Bool(p.stuckSet)
}

// DecodeState restores state written by EncodeState.
func (p *Physical) DecodeState(d *trace.Dec) {
	p.stuck = d.F64()
	p.stuckSet = d.Bool()
}

func encodeReading(e *trace.Enc, r Reading) {
	e.F64(r.Value)
	e.I64(int64(r.Time))
	e.F64(r.Validity)
	e.Str(r.Source)
}

// decodeReading reads a reading written by encodeReading. A source equal
// to held comes back as held itself, without allocating.
func decodeReading(d *trace.Dec, held string) Reading {
	var r Reading
	r.Value = d.F64()
	r.Time = sim.Time(d.I64())
	r.Validity = d.F64()
	r.Source = d.StrReuse(held)
	return r
}

// EncodeState appends the unit's history window, oldest reading first,
// and last verdicts to e.
func (fm *FaultManagement) EncodeState(e *trace.Enc) {
	e.U32(uint32(fm.hist.Len()))
	older, newer := fm.hist.oldestFirst()
	for _, r := range older {
		encodeReading(e, r)
	}
	for _, r := range newer {
		encodeReading(e, r)
	}
	e.U32(uint32(len(fm.lastVerdicts)))
	for _, v := range fm.lastVerdicts {
		e.F64(v.Validity)
		e.Bool(v.Dominant)
	}
	e.Bool(fm.assessed)
}

// DecodeState restores state written by EncodeState. The history may not
// outgrow the unit's window, and there must be one verdict per detector.
// The history is sized once, and its readings, which all name the same
// source, share one source string.
func (fm *FaultManagement) DecodeState(d *trace.Dec) {
	h := &fm.hist
	n := d.Count(25)
	if n > h.size {
		d.Fail("history of %d readings exceeds the window of %d", n, h.size)
		return
	}
	var held string
	if len(h.buf) > 0 {
		held = h.buf[0].Source
	}
	h.buf, h.head = slices.Grow(h.buf[:0], n), 0
	for i := 0; i < n && d.Err() == nil; i++ {
		r := decodeReading(d, held)
		held = r.Source
		h.buf = append(h.buf, r)
	}
	if d.CountIs(len(fm.lastVerdicts), "verdict") {
		for i := range fm.lastVerdicts {
			fm.lastVerdicts[i] = Verdict{Validity: d.F64(), Dominant: d.Bool()}
		}
	}
	fm.assessed = d.Bool()
}

// lastErr tags: fusion errors are either nil, the sentinel ErrNoData, or
// an ad-hoc message — encode accordingly so a decoded checkpoint keeps
// errors.Is(err, ErrNoData) working.
const (
	errTagNil uint8 = iota
	errTagNoData
	errTagOther
)

// EncodeState appends the fused sensor's filter, last error and suspects
// to e. The inputs' own state is encoded separately, through their
// Physical and FaultManagement parts.
func (rs *Reliable) EncodeState(e *trace.Enc) {
	f := rs.filter
	e.F64(f.Alpha)
	e.F64(f.Gate)
	e.F64(f.est)
	e.Bool(f.started)
	e.I64(f.accepted)
	e.I64(f.rejected)
	switch {
	case rs.lastErr == nil:
		e.U8(errTagNil)
	case errors.Is(rs.lastErr, ErrNoData):
		e.U8(errTagNoData)
	default:
		e.U8(errTagOther)
		e.Str(rs.lastErr.Error())
	}
	e.U32(uint32(len(rs.suspects)))
	for _, s := range rs.suspects {
		e.Str(s)
	}
}

// DecodeState restores state written by EncodeState.
func (rs *Reliable) DecodeState(d *trace.Dec) {
	f := rs.filter
	f.Alpha = d.F64()
	f.Gate = d.F64()
	f.est = d.F64()
	f.started = d.Bool()
	f.accepted = d.I64()
	f.rejected = d.I64()
	switch d.U8() {
	case errTagNil:
		rs.lastErr = nil
	case errTagNoData:
		rs.lastErr = ErrNoData
	default:
		rs.lastErr = errors.New(d.Str())
	}
	rs.suspects = rs.suspects[:0]
	for i, n := 0, d.Count(4); i < n && d.Err() == nil; i++ {
		rs.suspects = append(rs.suspects, d.Str())
	}
}
