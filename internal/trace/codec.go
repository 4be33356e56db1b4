// Package trace defines the compact, versioned binary format behind
// `karyon-sim -record` / `-replay` and `karyon-bisect`: a deterministic
// little-endian codec, a buffered trace writer, and a bounds-checked
// reader that fails on truncated or corrupt input without ever
// panicking. The package depends only on the standard library so every
// state-owning package (sensor, coord, core, gear, vehicle, wireless)
// can implement its own encode/decode methods against it.
package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrCorrupt is wrapped by every decode failure: truncated input,
// impossible lengths, bad magic, unknown versions.
var ErrCorrupt = errors.New("trace: corrupt or truncated input")

// Enc appends fixed-width little-endian values to a growing buffer.
// Encoding is pure append — the same sequence of calls always yields the
// same bytes, which is what makes traces diffable across runs.
type Enc struct {
	buf []byte
}

// Bytes returns the encoded buffer. The slice aliases the encoder's
// storage; it is valid until the next Reset.
func (e *Enc) Bytes() []byte { return e.buf }

// Reset clears the buffer, retaining capacity for reuse.
func (e *Enc) Reset() { e.buf = e.buf[:0] }

// Len reports the number of encoded bytes.
func (e *Enc) Len() int { return len(e.buf) }

func (e *Enc) U8(v uint8) { e.buf = append(e.buf, v) }

func (e *Enc) U32(v uint32) {
	e.buf = append(e.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func (e *Enc) U64(v uint64) {
	e.buf = append(e.buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Str encodes a length-prefixed string.
func (e *Enc) Str(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Blob encodes a length-prefixed byte slice.
func (e *Enc) Blob(b []byte) {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// Dec reads values sequentially from a byte slice. The first
// out-of-bounds or impossible read sets a sticky error; subsequent reads
// return zero values. Dec never panics on hostile input.
type Dec struct {
	buf []byte
	off int
	err error
}

// NewDec wraps data for sequential decoding.
func NewDec(data []byte) *Dec { return &Dec{buf: data} }

// Err returns the sticky decode error, nil if all reads were in bounds.
func (d *Dec) Err() error { return d.err }

// Remaining reports the number of unread bytes.
func (d *Dec) Remaining() int { return len(d.buf) - d.off }

// Fail records a decode failure. The first one sticks, wraps ErrCorrupt
// and names the offset it was detected at; later reads return zero
// values. State decoders call it for well-formed values the live object
// cannot take (a length that does not match its structure, an unknown
// id), so a hostile checkpoint fails like a truncated one.
func (d *Dec) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s at offset %d", ErrCorrupt, fmt.Sprintf(format, args...), d.off)
	}
}

// short fails the decode for a read of n bytes the input does not have.
func (d *Dec) short(n int) {
	d.Fail("need %d bytes, have %d", n, len(d.buf)-d.off)
}

func (d *Dec) take(n int) []byte {
	if d.err != nil || uint(n) > uint(len(d.buf)-d.off) {
		d.short(n)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// The fixed-width reads below make one bounds check each and load the
// value in place.

func (d *Dec) U8() uint8 {
	b := d.buf[d.off:]
	if d.err != nil || len(b) < 1 {
		d.short(1)
		return 0
	}
	d.off++
	return b[0]
}

func (d *Dec) U32() uint32 {
	b := d.buf[d.off:]
	if d.err != nil || len(b) < 4 {
		d.short(4)
		return 0
	}
	d.off += 4
	return binary.LittleEndian.Uint32(b)
}

func (d *Dec) U64() uint64 {
	b := d.buf[d.off:]
	if d.err != nil || len(b) < 8 {
		d.short(8)
		return 0
	}
	d.off += 8
	return binary.LittleEndian.Uint64(b)
}

func (d *Dec) I64() int64 { return int64(d.U64()) }

func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

func (d *Dec) Bool() bool { return d.U8() != 0 }

func (d *Dec) Str() string {
	return string(d.take(int(d.U32())))
}

// StrReuse decodes a string like Str, but returns held itself, without
// allocating, when the encoded bytes equal it. Decoders pass the value the
// field holds already, or the one decoded just before it, so a label that
// repeats across a checkpoint costs one allocation instead of one per value.
func (d *Dec) StrReuse(held string) string {
	b := d.take(int(d.U32()))
	if string(b) == held {
		return held
	}
	return string(b)
}

// Blob decodes a length-prefixed byte slice as a view of the input, not
// a copy: it aliases the bytes NewDec was given and is valid as long as
// they are unchanged. Its capacity equals its length, so appending to it
// reallocates instead of writing into the input.
func (d *Dec) Blob() []byte {
	b := d.take(int(d.U32()))
	return b[:len(b):len(b)]
}

// Count decodes a u32 element count and rejects values that cannot
// possibly fit in the remaining input (each element needs at least min
// bytes), so hostile counts never drive huge allocations.
func (d *Dec) Count(min int) int {
	n := int(d.U32())
	if d.err != nil {
		return 0
	}
	if min < 1 {
		min = 1
	}
	if n < 0 || n*min > d.Remaining() {
		d.Fail("count %d exceeds remaining input", n)
		return 0
	}
	return n
}

// CountIs decodes a u32 element count that must equal want, the length of
// a fixed structure in the object being restored, and fails otherwise. It
// reports whether decoding can go on.
func (d *Dec) CountIs(want int, what string) bool {
	n := d.U32()
	if d.err == nil && int64(n) != int64(want) {
		d.Fail("%s count %d, want %d", what, n, want)
	}
	return d.err == nil
}
