package trace

import (
	"bufio"
	"fmt"
	"io"
)

// Format layout (all integers little-endian):
//
//	magic   "KARYONTR" (8 bytes)
//	version u32
//	header  u32-length-prefixed payload (Header fields)
//	records kind u8 + u32-length-prefixed payload, until EOF
//
// A well-formed trace ends with a KindEnd record; its absence marks a
// truncated recording (e.g. the recording process crashed) and
// Parse reports it, because a debugging tool must never silently treat
// a partial trace as a short run.
const (
	Magic = "KARYONTR"
	// Version changes with every record or checkpoint layout change, so
	// a trace from an older layout is refused rather than misdecoded.
	Version = 2

	// maxPayload bounds one record so corrupt lengths fail fast instead
	// of driving gigabyte allocations.
	maxPayload = 1 << 28
)

// Record kinds.
const (
	KindWindow     = 1 // one barrier window: digest + decision records
	KindCheckpoint = 2 // full restorable world state at a window boundary
	KindEnd        = 3 // clean end-of-trace marker
)

// Header identifies a recording: the opaque JSON scenario spec (owned by
// the world layer) plus the engine parameters replay needs up front.
type Header struct {
	Spec            []byte // JSON TraceSpec, interpreted by internal/world; read back as a view (see Parse)
	Seed            int64
	Shards          int
	Window          int64 // barrier window in sim time units
	CheckpointEvery int   // windows between checkpoints (0 = none)
	Cars            int
}

// Grant is one granted lane-change reservation at a window barrier.
type Grant struct {
	Car    int32
	Lane   int32
	Region string
}

// Release is one reservation release at a window barrier.
type Release struct {
	Car    int32
	Region string
}

// WindowRecord captures one barrier window: the state digest plus every
// decision made at the barrier. Counters are cumulative. Crossers is
// shard-layout telemetry: it is recorded for inspection but excluded
// from the digest and from cross-width equality, because cross-shard
// handoff counts legitimately vary with -shards while the simulated
// behavior does not.
type WindowRecord struct {
	Index      uint64 // 1-based window index
	Edge       int64  // sim time of the barrier
	Digest     uint64 // FNV-1a over the width-invariant world state
	Collisions int64
	Delivered  int64 // beacons delivered (abstract loss or radio resolution)
	Lost       int64 // beacons lost
	Crossers   int64 // cross-shard handoffs (width-dependent telemetry)
	SpeedSum   float64
	SpeedN     int64
	Grants     []Grant
	Releases   []Release
}

// Same reports behavioral equality: every field except the
// width-dependent Crossers telemetry.
func (w *WindowRecord) Same(o *WindowRecord) bool {
	if w.Index != o.Index || w.Edge != o.Edge || w.Digest != o.Digest ||
		w.Collisions != o.Collisions || w.Delivered != o.Delivered ||
		w.Lost != o.Lost || w.SpeedSum != o.SpeedSum || w.SpeedN != o.SpeedN ||
		len(w.Grants) != len(o.Grants) || len(w.Releases) != len(o.Releases) {
		return false
	}
	for i := range w.Grants {
		if w.Grants[i] != o.Grants[i] {
			return false
		}
	}
	for i := range w.Releases {
		if w.Releases[i] != o.Releases[i] {
			return false
		}
	}
	return true
}

// CheckpointRecord carries the full restorable world state at the end of
// window Index. The state blob is encoded by internal/world; a read one
// is a view of the trace bytes (see Parse).
type CheckpointRecord struct {
	Index uint64
	Edge  int64
	State []byte
}

// EndRecord closes a trace: total windows and the final window's digest.
type EndRecord struct {
	Windows uint64
	Digest  uint64
}

// codable is a trace record: it names its fields once, in a state method
// that both the Writer and Parse pass a Codec through.
type codable interface{ state(*Codec) }

func (h *Header) state(c *Codec) {
	c.Blob(&h.Spec)
	Int(c, &h.Seed)
	u32(c, &h.Shards)
	Int(c, &h.Window)
	u32(c, &h.CheckpointEvery)
	u32(c, &h.Cars)
}

func (w *WindowRecord) state(c *Codec) {
	c.U64(&w.Index)
	Int(c, &w.Edge)
	c.U64(&w.Digest)
	Int(c, &w.Collisions)
	Int(c, &w.Delivered)
	Int(c, &w.Lost)
	Int(c, &w.Crossers)
	c.F64(&w.SpeedSum)
	Int(c, &w.SpeedN)
	w.Grants = visitList(c, w.Grants, 12, func(g *Grant) {
		u32(c, &g.Car)
		u32(c, &g.Lane)
		c.Str(&g.Region)
	})
	w.Releases = visitList(c, w.Releases, 8, func(r *Release) {
		u32(c, &r.Car)
		c.Str(&r.Region)
	})
}

func (ck *CheckpointRecord) state(c *Codec) {
	c.U64(&ck.Index)
	Int(c, &ck.Edge)
	c.Blob(&ck.State)
}

func (end *EndRecord) state(c *Codec) {
	c.U64(&end.Windows)
	c.U64(&end.Digest)
}

// u32 visits an integer field as a u32.
func u32[T ~int | ~int32](c *Codec, v *T) {
	x := uint32(*v)
	c.U32(&x)
	if c.Decoding() {
		*v = T(x)
	}
}

// visitList visits a counted list, each element at least min bytes
// encoded, and returns it: a decoded list is freshly allocated, and nil
// when empty.
func visitList[E any](c *Codec, list []E, min int, visit func(*E)) []E {
	n := c.Len(len(list), min)
	if c.Decoding() {
		list = nil
		if n > 0 {
			list = make([]E, n)
		}
	}
	for i := range list {
		visit(&list[i])
	}
	return list
}

// Writer streams a trace to w. Records are buffered; Close flushes.
// Writer methods are not safe for concurrent use — the recorder calls
// them from the single barrier goroutine.
type Writer struct {
	bw *bufio.Writer
	// enc holds the record being written; codec encodes into it.
	enc   Enc
	codec *Codec
	err   error
}

// NewWriter writes the magic, version, and header, returning a Writer
// ready for records.
func NewWriter(w io.Writer, h *Header) (*Writer, error) {
	tw := &Writer{bw: bufio.NewWriterSize(w, 1<<16)}
	tw.codec = Encoder(&tw.enc)
	h.state(tw.codec)
	if _, err := tw.bw.WriteString(Magic); err != nil {
		return nil, err
	}
	var v Enc
	v.U32(Version)
	v.Blob(tw.enc.Bytes())
	if _, err := tw.bw.Write(v.Bytes()); err != nil {
		return nil, err
	}
	return tw, nil
}

// record encodes rec's fields as one record of the kind and appends it.
func (tw *Writer) record(kind uint8, rec codable) error {
	if tw.err != nil {
		return tw.err
	}
	tw.enc.Reset()
	rec.state(tw.codec)
	payload := tw.enc.Bytes()
	var hdr Enc
	hdr.U8(kind)
	hdr.U32(uint32(len(payload)))
	if _, err := tw.bw.Write(hdr.Bytes()); err != nil {
		tw.err = err
		return err
	}
	if _, err := tw.bw.Write(payload); err != nil {
		tw.err = err
	}
	return tw.err
}

// WriteWindow appends one window record.
func (tw *Writer) WriteWindow(w *WindowRecord) error { return tw.record(KindWindow, w) }

// WriteCheckpoint appends one checkpoint record.
func (tw *Writer) WriteCheckpoint(c *CheckpointRecord) error {
	return tw.record(KindCheckpoint, c)
}

// Close writes the end marker and flushes. The Writer is unusable after.
func (tw *Writer) Close(end *EndRecord) error {
	if err := tw.record(KindEnd, end); err != nil {
		return err
	}
	if err := tw.bw.Flush(); err != nil {
		tw.err = err
		return err
	}
	return nil
}

// Contents is a fully parsed trace: the header plus all records in
// order, with checkpoints indexed by window.
type Contents struct {
	Header      Header
	Windows     []WindowRecord              // ordered by Index (1..N)
	Checkpoints map[uint64]CheckpointRecord // keyed by window index
	End         EndRecord
}

// Parse reads an entire trace from memory and validates it. All reads
// are bounds-checked; malformed input yields an error wrapping
// ErrCorrupt, never a panic. Window indices must be contiguous from 1,
// checkpoints must land on an already-seen window, and the trace must
// close with an end marker that matches the windows read and is
// followed by nothing.
//
// Parse copies no blob: Header.Spec and every checkpoint's State are
// views of data, so parsing a trace costs its window records, not its
// megabytes of checkpoints. The views are valid while data is unchanged;
// a caller that reuses or mutates it must copy what it keeps. Each view's
// capacity equals its length, so an append to one never writes into the
// trace.
func Parse(data []byte) (*Contents, error) {
	d := NewDec(data)
	magic := d.take(len(Magic))
	if d.Err() != nil || string(magic) != Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := d.U32(); d.Err() != nil || v != Version {
		return nil, fmt.Errorf("%w: unsupported trace version %d (want %d)", ErrCorrupt, v, Version)
	}
	hb := d.Blob()
	if d.Err() != nil {
		return nil, d.Err()
	}
	c := &Contents{Checkpoints: map[uint64]CheckpointRecord{}}
	h := &c.Header
	hd := NewDec(hb)
	h.state(Decoder(hd))
	if err := hd.Err(); err != nil {
		return nil, err
	}
	if h.Shards < 1 || h.Shards > 1<<16 || h.Window <= 0 || h.Cars < 0 || h.Cars > 1<<24 {
		return nil, fmt.Errorf("%w: implausible header (shards=%d window=%d cars=%d)",
			ErrCorrupt, h.Shards, h.Window, h.Cars)
	}
	// pd holds the record being read; decode reads rec from it.
	var pd Dec
	codec := Decoder(&pd)
	decode := func(rec codable) error {
		rec.state(codec)
		return pd.Err()
	}
	for {
		if d.Remaining() == 0 {
			return nil, fmt.Errorf("%w: trace ends without an end marker (recording interrupted?)", ErrCorrupt)
		}
		kind := d.U8()
		n := int(d.U32())
		if d.Err() == nil && n > maxPayload {
			return nil, fmt.Errorf("%w: record payload %d exceeds limit", ErrCorrupt, n)
		}
		pd = Dec{buf: d.take(n)}
		if err := d.Err(); err != nil {
			return nil, err
		}
		switch kind {
		case KindWindow:
			var w WindowRecord
			if err := decode(&w); err != nil {
				return nil, err
			}
			if want := uint64(len(c.Windows) + 1); w.Index != want {
				return nil, fmt.Errorf("%w: window %d out of order (want %d)", ErrCorrupt, w.Index, want)
			}
			c.Windows = append(c.Windows, w)
		case KindCheckpoint:
			var ck CheckpointRecord
			if err := decode(&ck); err != nil {
				return nil, err
			}
			if ck.Index == 0 || ck.Index > uint64(len(c.Windows)) {
				return nil, fmt.Errorf("%w: checkpoint at unseen window %d", ErrCorrupt, ck.Index)
			}
			c.Checkpoints[ck.Index] = ck
		case KindEnd:
			if err := decode(&c.End); err != nil {
				return nil, err
			}
			if n := d.Remaining(); n > 0 {
				return nil, fmt.Errorf("%w: %d trailing bytes after end marker", ErrCorrupt, n)
			}
			if c.End.Windows != uint64(len(c.Windows)) {
				return nil, fmt.Errorf("%w: end marker claims %d windows, trace has %d", ErrCorrupt, c.End.Windows, len(c.Windows))
			}
			if n := len(c.Windows); n > 0 && c.End.Digest != c.Windows[n-1].Digest {
				return nil, fmt.Errorf("%w: end digest mismatch", ErrCorrupt)
			}
			return c, nil
		default:
			return nil, fmt.Errorf("%w: unknown record kind %d", ErrCorrupt, kind)
		}
	}
}
