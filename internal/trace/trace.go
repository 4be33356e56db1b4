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
// truncated recording (e.g. the recording process crashed) and the
// reader reports it, because a debugging tool must never silently treat
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
	Spec            []byte // JSON TraceSpec, interpreted by internal/world
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

func (w *WindowRecord) encode(e *Enc) {
	e.U64(w.Index)
	e.I64(w.Edge)
	e.U64(w.Digest)
	e.I64(w.Collisions)
	e.I64(w.Delivered)
	e.I64(w.Lost)
	e.I64(w.Crossers)
	e.F64(w.SpeedSum)
	e.I64(w.SpeedN)
	e.U32(uint32(len(w.Grants)))
	for _, g := range w.Grants {
		e.U32(uint32(g.Car))
		e.U32(uint32(g.Lane))
		e.Str(g.Region)
	}
	e.U32(uint32(len(w.Releases)))
	for _, r := range w.Releases {
		e.U32(uint32(r.Car))
		e.Str(r.Region)
	}
}

func (w *WindowRecord) decode(d *Dec) {
	w.Index = d.U64()
	w.Edge = d.I64()
	w.Digest = d.U64()
	w.Collisions = d.I64()
	w.Delivered = d.I64()
	w.Lost = d.I64()
	w.Crossers = d.I64()
	w.SpeedSum = d.F64()
	w.SpeedN = d.I64()
	if n := d.Count(12); n > 0 {
		w.Grants = make([]Grant, 0, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			w.Grants = append(w.Grants, Grant{
				Car: int32(d.U32()), Lane: int32(d.U32()), Region: d.Str(),
			})
		}
	}
	if n := d.Count(8); n > 0 {
		w.Releases = make([]Release, 0, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			w.Releases = append(w.Releases, Release{
				Car: int32(d.U32()), Region: d.Str(),
			})
		}
	}
}

// CheckpointRecord carries the full restorable world state at the end of
// window Index. The state blob is encoded by internal/world.
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

// Writer streams a trace to w. Records are buffered; Close flushes.
// Writer methods are not safe for concurrent use — the recorder calls
// them from the single barrier goroutine.
type Writer struct {
	bw  *bufio.Writer
	enc Enc
	err error
}

// NewWriter writes the magic, version, and header, returning a Writer
// ready for records.
func NewWriter(w io.Writer, h *Header) (*Writer, error) {
	tw := &Writer{bw: bufio.NewWriterSize(w, 1<<16)}
	tw.enc.Reset()
	tw.enc.Blob(h.Spec)
	tw.enc.I64(h.Seed)
	tw.enc.U32(uint32(h.Shards))
	tw.enc.I64(h.Window)
	tw.enc.U32(uint32(h.CheckpointEvery))
	tw.enc.U32(uint32(h.Cars))
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

func (tw *Writer) record(kind uint8, payload []byte) error {
	if tw.err != nil {
		return tw.err
	}
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
func (tw *Writer) WriteWindow(w *WindowRecord) error {
	tw.enc.Reset()
	w.encode(&tw.enc)
	return tw.record(KindWindow, tw.enc.Bytes())
}

// WriteCheckpoint appends one checkpoint record.
func (tw *Writer) WriteCheckpoint(c *CheckpointRecord) error {
	tw.enc.Reset()
	tw.enc.U64(c.Index)
	tw.enc.I64(c.Edge)
	tw.enc.Blob(c.State)
	return tw.record(KindCheckpoint, tw.enc.Bytes())
}

// Close writes the end marker and flushes. The Writer is unusable after.
func (tw *Writer) Close(end *EndRecord) error {
	tw.enc.Reset()
	tw.enc.U64(end.Windows)
	tw.enc.U64(end.Digest)
	if err := tw.record(KindEnd, tw.enc.Bytes()); err != nil {
		return err
	}
	if err := tw.bw.Flush(); err != nil {
		tw.err = err
		return err
	}
	return nil
}

// Event is one decoded record; exactly one of the pointers is set,
// matching Kind.
type Event struct {
	Kind       uint8
	Window     *WindowRecord
	Checkpoint *CheckpointRecord
	End        *EndRecord
}

// Reader decodes a trace from an in-memory byte slice. All reads are
// bounds-checked; malformed input yields an error wrapping ErrCorrupt,
// never a panic.
type Reader struct {
	d      *Dec
	hdr    Header
	sawEnd bool
}

// NewReader validates the magic, version, and header.
func NewReader(data []byte) (*Reader, error) {
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
	hd := NewDec(hb)
	r := &Reader{d: d}
	r.hdr.Spec = hd.Blob()
	r.hdr.Seed = hd.I64()
	r.hdr.Shards = int(hd.U32())
	r.hdr.Window = hd.I64()
	r.hdr.CheckpointEvery = int(hd.U32())
	r.hdr.Cars = int(hd.U32())
	if err := hd.Err(); err != nil {
		return nil, err
	}
	if r.hdr.Shards < 1 || r.hdr.Shards > 1<<16 || r.hdr.Window <= 0 || r.hdr.Cars < 0 || r.hdr.Cars > 1<<24 {
		return nil, fmt.Errorf("%w: implausible header (shards=%d window=%d cars=%d)",
			ErrCorrupt, r.hdr.Shards, r.hdr.Window, r.hdr.Cars)
	}
	return r, nil
}

// Header returns the decoded trace header.
func (r *Reader) Header() *Header { return &r.hdr }

// Next decodes the next record. It returns io.EOF after a clean end
// marker; running out of bytes without one is a truncation error.
func (r *Reader) Next() (*Event, error) {
	if r.sawEnd {
		if n := r.d.Remaining(); n > 0 {
			return nil, fmt.Errorf("%w: %d trailing bytes after end marker", ErrCorrupt, n)
		}
		return nil, io.EOF
	}
	if r.d.Remaining() == 0 {
		return nil, fmt.Errorf("%w: trace ends without an end marker (recording interrupted?)", ErrCorrupt)
	}
	kind := r.d.U8()
	n := int(r.d.U32())
	if r.d.Err() == nil && n > maxPayload {
		return nil, fmt.Errorf("%w: record payload %d exceeds limit", ErrCorrupt, n)
	}
	payload := r.d.take(n)
	if err := r.d.Err(); err != nil {
		return nil, err
	}
	pd := NewDec(payload)
	ev := &Event{Kind: kind}
	switch kind {
	case KindWindow:
		ev.Window = &WindowRecord{}
		ev.Window.decode(pd)
	case KindCheckpoint:
		ev.Checkpoint = &CheckpointRecord{Index: pd.U64(), Edge: pd.I64(), State: pd.Blob()}
	case KindEnd:
		ev.End = &EndRecord{Windows: pd.U64(), Digest: pd.U64()}
		r.sawEnd = true
	default:
		return nil, fmt.Errorf("%w: unknown record kind %d", ErrCorrupt, kind)
	}
	if err := pd.Err(); err != nil {
		return nil, err
	}
	return ev, nil
}

// Contents is a fully parsed trace: the header plus all records in
// order, with checkpoints indexed by window.
type Contents struct {
	Header      Header
	Windows     []WindowRecord              // ordered by Index (1..N)
	Checkpoints map[uint64]CheckpointRecord // keyed by window index
	End         EndRecord
}

// Parse reads an entire trace into memory, validating record ordering:
// window indices must be contiguous from 1 and checkpoints must land on
// an already-seen window.
func Parse(data []byte) (*Contents, error) {
	r, err := NewReader(data)
	if err != nil {
		return nil, err
	}
	c := &Contents{Header: *r.Header(), Checkpoints: map[uint64]CheckpointRecord{}}
	for {
		ev, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch ev.Kind {
		case KindWindow:
			if want := uint64(len(c.Windows) + 1); ev.Window.Index != want {
				return nil, fmt.Errorf("%w: window %d out of order (want %d)", ErrCorrupt, ev.Window.Index, want)
			}
			c.Windows = append(c.Windows, *ev.Window)
		case KindCheckpoint:
			if ev.Checkpoint.Index == 0 || ev.Checkpoint.Index > uint64(len(c.Windows)) {
				return nil, fmt.Errorf("%w: checkpoint at unseen window %d", ErrCorrupt, ev.Checkpoint.Index)
			}
			c.Checkpoints[ev.Checkpoint.Index] = *ev.Checkpoint
		case KindEnd:
			c.End = *ev.End
		}
	}
	if c.End.Windows != uint64(len(c.Windows)) {
		return nil, fmt.Errorf("%w: end marker claims %d windows, trace has %d", ErrCorrupt, c.End.Windows, len(c.Windows))
	}
	if n := len(c.Windows); n > 0 && c.End.Digest != c.Windows[n-1].Digest {
		return nil, fmt.Errorf("%w: end digest mismatch", ErrCorrupt)
	}
	return c, nil
}
