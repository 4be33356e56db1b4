package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func sampleTrace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, &Header{
		Spec: []byte(`{"scenario":"highway"}`), Seed: 7, Shards: 4,
		Window: 100_000_000, CheckpointEvery: 2, Cars: 30,
	})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	var last uint64
	for i := uint64(1); i <= 5; i++ {
		wr := WindowRecord{
			Index: i, Edge: int64(i) * 100_000_000, Digest: 0xABC0 + i,
			Collisions: int64(i), Delivered: 10 * int64(i), Lost: int64(i) / 2,
			Crossers: 3, SpeedSum: 19.5 * float64(i), SpeedN: 30 * int64(i),
			Grants:   []Grant{{Car: int32(i), Lane: 1, Region: "lane1@3"}},
			Releases: []Release{{Car: int32(i), Region: "lane0@2"}},
		}
		last = wr.Digest
		if err := w.WriteWindow(&wr); err != nil {
			t.Fatalf("WriteWindow: %v", err)
		}
		if i%2 == 0 {
			ck := CheckpointRecord{Index: i, Edge: wr.Edge, State: bytes.Repeat([]byte{byte(i)}, 64)}
			if err := w.WriteCheckpoint(&ck); err != nil {
				t.Fatalf("WriteCheckpoint: %v", err)
			}
		}
	}
	if err := w.Close(&EndRecord{Windows: 5, Digest: last}); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

func TestTraceRoundTrip(t *testing.T) {
	data := sampleTrace(t)
	c, err := Parse(data)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if string(c.Header.Spec) != `{"scenario":"highway"}` || c.Header.Seed != 7 ||
		c.Header.Shards != 4 || c.Header.Window != 100_000_000 ||
		c.Header.CheckpointEvery != 2 || c.Header.Cars != 30 {
		t.Fatalf("header mismatch: %+v", c.Header)
	}
	if len(c.Windows) != 5 {
		t.Fatalf("want 5 windows, got %d", len(c.Windows))
	}
	for i, w := range c.Windows {
		if w.Index != uint64(i+1) || w.Digest != 0xABC0+uint64(i+1) {
			t.Fatalf("window %d decoded wrong: %+v", i, w)
		}
		if len(w.Grants) != 1 || w.Grants[0].Region != "lane1@3" {
			t.Fatalf("window %d grants decoded wrong: %+v", i, w.Grants)
		}
	}
	if len(c.Checkpoints) != 2 {
		t.Fatalf("want 2 checkpoints, got %d", len(c.Checkpoints))
	}
	if ck, ok := c.Checkpoints[4]; !ok || len(ck.State) != 64 || ck.State[0] != 4 {
		t.Fatalf("checkpoint 4 decoded wrong")
	}
	if c.End.Windows != 5 {
		t.Fatalf("end record wrong: %+v", c.End)
	}
}

func TestWindowRecordSameIgnoresCrossers(t *testing.T) {
	a := WindowRecord{Index: 1, Digest: 42, Crossers: 7, Grants: []Grant{{Car: 1, Lane: 2, Region: "r"}}}
	b := a
	b.Crossers = 99
	if !a.Same(&b) {
		t.Fatal("Same must ignore the width-dependent Crossers field")
	}
	b.Digest = 43
	if a.Same(&b) {
		t.Fatal("Same must detect digest differences")
	}
}

func TestTraceTruncationErrors(t *testing.T) {
	data := sampleTrace(t)
	// Every strict prefix must error (wrapping ErrCorrupt), never panic
	// and never parse cleanly.
	for n := 0; n < len(data); n++ {
		if _, err := Parse(data[:n]); err == nil {
			t.Fatalf("truncation at %d bytes parsed cleanly", n)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: error %v does not wrap ErrCorrupt", n, err)
		}
	}
}

func TestTraceCorruptionErrors(t *testing.T) {
	base := sampleTrace(t)
	cases := map[string]func([]byte) []byte{
		"bad magic":   func(b []byte) []byte { b[0] ^= 0xFF; return b },
		"bad version": func(b []byte) []byte { b[8] = 0xFE; return b },
		"version 1":   func(b []byte) []byte { b[8] = 1; return b },
		"bad kind":    func(b []byte) []byte { b[len(Magic)+4+4+headerLen(b)] = 0x77; return b },
		"huge payload": func(b []byte) []byte {
			i := len(Magic) + 4 + 4 + headerLen(b) + 1
			b[i], b[i+1], b[i+2], b[i+3] = 0xFF, 0xFF, 0xFF, 0x7F
			return b
		},
		"trailing bytes": func(b []byte) []byte { return append(b, 0x01) },
	}
	for name, mutate := range cases {
		data := mutate(append([]byte(nil), base...))
		if _, err := Parse(data); err == nil {
			t.Errorf("%s: parsed cleanly", name)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error %v does not wrap ErrCorrupt", name, err)
		}
	}
}

// headerLen reads the u32 header-blob length at its fixed offset.
func headerLen(b []byte) int {
	o := len(Magic) + 4
	return int(uint32(b[o]) | uint32(b[o+1])<<8 | uint32(b[o+2])<<16 | uint32(b[o+3])<<24)
}

func TestReaderStreaming(t *testing.T) {
	data := sampleTrace(t)
	r, err := NewReader(data)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	var windows, checkpoints, ends int
	for {
		ev, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		switch ev.Kind {
		case KindWindow:
			windows++
		case KindCheckpoint:
			checkpoints++
		case KindEnd:
			ends++
		}
	}
	if windows != 5 || checkpoints != 2 || ends != 1 {
		t.Fatalf("streamed %d/%d/%d records, want 5/2/1", windows, checkpoints, ends)
	}
}

func TestDecCountRejectsHostileLengths(t *testing.T) {
	var e Enc
	e.U32(0xFFFFFFF0) // count far beyond the remaining bytes
	d := NewDec(e.Bytes())
	if n := d.Count(4); n != 0 || d.Err() == nil {
		t.Fatalf("hostile count accepted: n=%d err=%v", n, d.Err())
	}
}

// FuzzTraceReader feeds arbitrary bytes through the full parse path. The
// invariant under fuzz: malformed input errors, never panics, and no
// input both parses cleanly and round-trips to different bytes.
func FuzzTraceReader(f *testing.F) {
	f.Add(sampleTraceBytes())
	f.Add([]byte(Magic))
	f.Add([]byte{})
	f.Add([]byte("KARYONTRxxxxgarbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Parse(data)
		if err != nil {
			return
		}
		// A clean parse must survive re-encoding.
		var buf bytes.Buffer
		w, werr := NewWriter(&buf, &c.Header)
		if werr != nil {
			t.Fatalf("re-encode header: %v", werr)
		}
		for i := range c.Windows {
			if err := w.WriteWindow(&c.Windows[i]); err != nil {
				t.Fatalf("re-encode window: %v", err)
			}
		}
		if err := w.Close(&c.End); err != nil {
			t.Fatalf("re-encode close: %v", err)
		}
		if _, err := Parse(buf.Bytes()); err != nil {
			t.Fatalf("re-encoded trace failed to parse: %v", err)
		}
	})
}

func sampleTraceBytes() []byte {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, &Header{Spec: []byte(`{}`), Seed: 1, Shards: 1, Window: 1, CheckpointEvery: 0, Cars: 1})
	if err != nil {
		return nil
	}
	wr := WindowRecord{Index: 1, Edge: 1, Digest: 2}
	if err := w.WriteWindow(&wr); err != nil {
		return nil
	}
	if err := w.Close(&EndRecord{Windows: 1, Digest: 2}); err != nil {
		return nil
	}
	return buf.Bytes()
}
