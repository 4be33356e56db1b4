package trace

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"testing"
)

// level stands for the named integer types components checkpoint through
// Int (sim.Time, core.LoS, wireless.NodeID).
type level int

// sample holds one field of every Codec primitive, and a slice sized
// through Len and a fixed structure checked through LenIs.
type sample struct {
	u8    uint8
	u32   uint32
	u64   uint64
	f64   float64
	nan   float64
	flag  bool
	name  string
	blob  []byte
	i     int
	i64   int64
	lv    level
	list  []float64
	fixed [3]bool
}

func (s *sample) state(c *Codec) {
	c.U8(&s.u8)
	c.U32(&s.u32)
	c.U64(&s.u64)
	c.F64(&s.f64)
	c.F64(&s.nan)
	c.Bool(&s.flag)
	c.Str(&s.name)
	c.Blob(&s.blob)
	Int(c, &s.i)
	Int(c, &s.i64)
	Int(c, &s.lv)
	n := c.Len(len(s.list), 8)
	if c.Decoding() {
		s.list = make([]float64, n)
	}
	for i := range s.list {
		c.F64(&s.list[i])
	}
	if c.LenIs(len(s.fixed), "fixed") {
		for i := range s.fixed {
			c.Bool(&s.fixed[i])
		}
	}
}

// TestCodecRoundTrip visits every primitive in both modes: encoding writes
// exactly the bytes the Enc calls of the same fields write, and decoding
// those bytes restores every field, a NaN's payload bit for bit, and a
// blob as a view of the input capped at its length.
func TestCodecRoundTrip(t *testing.T) {
	want := sample{
		u8: 0xA5, u32: 0xFEED_BEEF, u64: 1<<63 | 7, f64: -0.0, nan: math.Float64frombits(0x7FF8_0000_0000_00AB),
		flag: true, name: "lane-1", blob: []byte("blob\x00\xff"), i: -42, i64: math.MinInt64, lv: 3,
		list: []float64{1.5, math.Inf(-1)}, fixed: [3]bool{true, false, true},
	}
	var e Enc
	c := Encoder(&e)
	want.state(c)
	if c.Decoding() || c.Dec() != nil {
		t.Fatal("an encoding Codec reports decoding")
	}
	c.Fail("ignored while encoding")

	var ref Enc
	ref.U8(want.u8)
	ref.U32(want.u32)
	ref.U64(want.u64)
	ref.F64(want.f64)
	ref.F64(want.nan)
	ref.Bool(want.flag)
	ref.Str(want.name)
	ref.Blob(want.blob)
	ref.I64(int64(want.i))
	ref.I64(want.i64)
	ref.I64(int64(want.lv))
	ref.U32(uint32(len(want.list)))
	for _, v := range want.list {
		ref.F64(v)
	}
	ref.U32(uint32(len(want.fixed)))
	for _, v := range want.fixed {
		ref.Bool(v)
	}
	if !bytes.Equal(e.Bytes(), ref.Bytes()) {
		t.Fatalf("Codec wrote %x, Enc writes %x", e.Bytes(), ref.Bytes())
	}

	var got sample
	d := NewDec(e.Bytes())
	dc := Decoder(d)
	got.state(dc)
	if !dc.Decoding() || dc.Dec() != d {
		t.Fatal("a decoding Codec reports encoding")
	}
	if err := d.Err(); err != nil || d.Remaining() != 0 {
		t.Fatalf("decode: err %v, %d bytes left", err, d.Remaining())
	}
	if math.Float64bits(got.f64) != math.Float64bits(want.f64) || math.Float64bits(got.nan) != math.Float64bits(want.nan) {
		t.Fatalf("floats: got %x %x, want %x %x", math.Float64bits(got.f64), math.Float64bits(got.nan),
			math.Float64bits(want.f64), math.Float64bits(want.nan))
	}
	got.f64, got.nan = want.f64, want.nan
	at := bytes.Index(e.Bytes(), want.blob)
	if !bytes.Equal(got.blob, want.blob) || cap(got.blob) != len(got.blob) || &got.blob[0] != &e.Bytes()[at] {
		t.Fatalf("blob: got %x (cap %d), want a capped view of the input's %x", got.blob, cap(got.blob), want.blob)
	}
	got.blob = want.blob
	if got.u8 != want.u8 || got.u32 != want.u32 || got.u64 != want.u64 || got.flag != want.flag || got.name != want.name ||
		got.i != want.i || got.i64 != want.i64 || got.lv != want.lv || got.fixed != want.fixed ||
		len(got.list) != 2 || got.list[0] != want.list[0] || got.list[1] != want.list[1] {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
}

// TestCodecStrKeepsHeld: decoding a string equal to the one the field
// holds keeps that string and does not allocate.
func TestCodecStrKeepsHeld(t *testing.T) {
	var e Enc
	e.Str("cruise")
	held := string([]byte("cruise"))
	d := NewDec(nil)
	c := Decoder(d)
	if a := testing.AllocsPerRun(100, func() {
		*d = Dec{buf: e.Bytes()}
		c.Str(&held)
	}); a != 0 {
		t.Fatalf("decoding a held string allocates %v times", a)
	}
	if held != "cruise" {
		t.Fatalf("held = %q", held)
	}
}

// TestCodecLenRejectsHostileCounts: a count the remaining input cannot
// hold at min bytes per element, or a fixed structure's count that does
// not match, fails the decode and yields no elements, so a caller that
// sizes its slice to the result allocates nothing for it.
func TestCodecLenRejectsHostileCounts(t *testing.T) {
	for _, tc := range []struct {
		name  string
		count uint32
		tail  int
	}{
		{"above the remaining input", 3, 16},
		{"above any input", math.MaxUint32, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var e Enc
			e.U32(tc.count)
			e.buf = append(e.buf, make([]byte, tc.tail)...)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			c := Decoder(NewDec(e.Bytes()))
			s := make([]uint64, c.Len(0, 8))
			runtime.ReadMemStats(&m1)
			if len(s) != 0 || !errors.Is(c.Dec().Err(), ErrCorrupt) {
				t.Fatalf("Len gave %d elements, err %v", len(s), c.Dec().Err())
			}
			if b := m1.TotalAlloc - m0.TotalAlloc; b > 1<<12 {
				t.Fatalf("a rejected count allocated %d bytes", b)
			}
		})
	}
	var e Enc
	e.U32(8)
	if c := Decoder(NewDec(e.Bytes())); c.LenIs(3, "fixed") || !errors.Is(c.Dec().Err(), ErrCorrupt) {
		t.Fatalf("LenIs accepted count 8 for a structure of 3: err %v", c.Dec().Err())
	}
	// A count that fits exactly is accepted.
	e.Reset()
	e.U32(2)
	e.buf = append(e.buf, make([]byte, 16)...)
	if c := Decoder(NewDec(e.Bytes())); c.Len(0, 8) != 2 || c.Dec().Err() != nil {
		t.Fatalf("Len rejected a count that fits: %v", c.Dec().Err())
	}
}

// TestCodecErrorIsSticky: after the first failure every later field reads
// zero, without a panic, and the first error is the one reported.
func TestCodecErrorIsSticky(t *testing.T) {
	var e Enc
	full := sample{u8: 1, u64: 2, f64: 3, flag: true, name: "x", i: 4, i64: 5, lv: 6, list: []float64{7}}
	full.state(Encoder(&e))
	for cut := 0; cut < e.Len(); cut++ {
		got := sample{u64: 99, f64: 99, name: "held", i: 99, i64: 99, lv: 99}
		c := Decoder(NewDec(e.Bytes()[:cut]))
		got.state(c)
		first := c.Dec().Err()
		if !errors.Is(first, ErrCorrupt) {
			t.Fatalf("cut at %d: err %v", cut, first)
		}
		c.Fail("a later failure")
		var f64 float64
		var flag bool
		var i level
		var u64 uint64
		c.F64(&f64)
		c.Bool(&flag)
		Int(c, &i)
		c.U64(&u64)
		if c.Len(5, 1) != 0 || c.LenIs(0, "empty") || f64 != 0 || flag || i != 0 || u64 != 0 {
			t.Fatalf("cut at %d: a read after the failure was not zero", cut)
		}
		if c.Dec().Err() != first {
			t.Fatalf("cut at %d: error changed from %v to %v", cut, first, c.Dec().Err())
		}
	}
}
