// Package trace defines the compact, versioned binary format behind
// `karyon-sim -record` / `-replay` and `karyon-bisect`: a deterministic
// little-endian codec, a buffered trace writer, and a bounds-checked
// reader that fails on truncated or corrupt input without ever
// panicking. The package depends only on the standard library so every
// state-owning package (sensor, coord, core, gear, vehicle, wireless)
// can name its checkpointed fields once, in a State(*Codec) method.
package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"unsafe"
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

// Codec is one pass over a component's checkpointed state: it writes each
// field through an Enc, or reads each field from a Dec back into the live
// object. A component names every field once, in one State(*Codec)
// method, so its encoder and decoder cannot disagree on the order. Work
// only a restore does (validation, rebuilding derived structure) goes
// behind Decoding. Each method is a plain branch on the mode, so encoding
// stays one call per field.
type Codec struct {
	e *Enc
	d *Dec
}

// Encoder returns a Codec that appends the fields it visits to e.
func Encoder(e *Enc) *Codec { return &Codec{e: e} }

// Decoder returns a Codec that reads the fields it visits from d.
func Decoder(d *Dec) *Codec { return &Codec{d: d} }

// Decoding reports whether c restores state rather than writing it.
func (c *Codec) Decoding() bool { return c.d != nil }

// Dec returns the decoder while decoding and nil while encoding.
func (c *Codec) Dec() *Dec { return c.d }

// Fail fails the decode, as Dec.Fail does. Encoding ignores it: only a
// restore validates what it reads.
func (c *Codec) Fail(format string, args ...any) {
	if c.d != nil {
		c.d.Fail(format, args...)
	}
}

func (c *Codec) U8(v *uint8) {
	if c.d != nil {
		*v = c.d.U8()
	} else {
		c.e.U8(*v)
	}
}

func (c *Codec) U32(v *uint32) {
	if c.d != nil {
		*v = c.d.U32()
	} else {
		c.e.U32(*v)
	}
}

// U64 visits a u64. F64 goes through it too, so its decode path makes
// Dec.U64's checks in line: a float, the commonest field, costs one call
// to restore as to encode.
func (c *Codec) U64(v *uint64) {
	d := c.d
	if d == nil {
		c.e.U64(*v)
		return
	}
	if b := d.buf[d.off:]; d.err == nil && len(b) >= 8 {
		d.off += 8
		*v = binary.LittleEndian.Uint64(b)
		return
	}
	d.short(8)
	*v = 0
}

// F64 visits a float64 as its IEEE 754 bits (math.Float64bits), through
// U64 in place, so it inlines to one call.
func (c *Codec) F64(v *float64) { c.U64((*uint64)(unsafe.Pointer(v))) }

func (c *Codec) Bool(v *bool) {
	if c.d != nil {
		*v = c.d.Bool()
	} else {
		c.e.Bool(*v)
	}
}

// Str visits a length-prefixed string. Decoding keeps the string *v
// holds, without allocating, when the encoded bytes equal it: a restore
// that starts a field from the value held already, or from the one
// decoded just before it, pays one allocation for a label that repeats
// across a checkpoint instead of one per value.
func (c *Codec) Str(v *string) {
	if c.d == nil {
		c.e.Str(*v)
	} else if b := c.d.take(int(c.d.U32())); string(b) != *v {
		*v = string(b)
	}
}

// Blob visits a length-prefixed byte slice. A decoded blob is a view of
// the input with its capacity equal to its length, as Dec.Blob returns.
func (c *Codec) Blob(v *[]byte) {
	if c.d != nil {
		*v = c.d.Blob()
	} else {
		c.e.Blob(*v)
	}
}

// Int visits an integer field as an i64.
func Int[T ~int | ~int64](c *Codec, v *T) {
	if c.d != nil {
		*v = T(c.d.I64())
	} else {
		c.e.I64(int64(*v))
	}
}

// Len visits an element count: encoding writes n and returns it, decoding
// returns the count it reads, or 0 after failing the decode for a count
// the remaining input cannot hold at min bytes per element (see
// Dec.Count). A decoder sizes its slice to the result once.
func (c *Codec) Len(n, min int) int {
	if c.d != nil {
		return c.d.Count(min)
	}
	c.e.U32(uint32(n))
	return n
}

// LenIs visits the length n of a fixed structure in the object being
// restored: decoding fails unless the count it reads equals n. It reports
// whether the pass can go on.
func (c *Codec) LenIs(n int, what string) bool {
	if c.d == nil {
		c.e.U32(uint32(n))
		return true
	}
	if got := c.d.U32(); c.d.err == nil && int64(got) != int64(n) {
		c.d.Fail("%s count %d, want %d", what, got, n)
	}
	return c.d.err == nil
}
