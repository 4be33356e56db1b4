package trace

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
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
	c, err := Parse(sampleTrace(t))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(c.Windows) != 5 || len(c.Checkpoints) != 2 || c.End.Windows != 5 {
		t.Fatalf("parsed %d windows, %d checkpoints, end at %d; want 5/2/5",
			len(c.Windows), len(c.Checkpoints), c.End.Windows)
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
// invariant under fuzz: malformed input errors, never panics, and a clean
// parse re-encodes, checkpoints included, to a trace that parses to the
// same contents.
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
		again, err := Parse(encodeContents(t, c))
		if err != nil {
			t.Fatalf("re-encoded trace failed to parse: %v", err)
		}
		if diff := diffContents(c, again); diff != "" {
			t.Fatalf("re-encoded trace parses differently: %s", diff)
		}
	})
}

// encodeContents writes c back out as a trace, each checkpoint right after
// the window it was taken at.
func encodeContents(t *testing.T, c *Contents) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, &c.Header)
	if err != nil {
		t.Fatalf("re-encode header: %v", err)
	}
	for i := range c.Windows {
		if err := w.WriteWindow(&c.Windows[i]); err != nil {
			t.Fatalf("re-encode window: %v", err)
		}
		if ck, ok := c.Checkpoints[c.Windows[i].Index]; ok {
			if err := w.WriteCheckpoint(&ck); err != nil {
				t.Fatalf("re-encode checkpoint: %v", err)
			}
		}
	}
	if err := w.Close(&c.End); err != nil {
		t.Fatalf("re-encode close: %v", err)
	}
	return buf.Bytes()
}

// diffContents names the first difference between two parsed traces, ""
// if there is none. Window records compare by their encoding, so a NaN
// speed sum equals itself.
func diffContents(a, b *Contents) string {
	ha, hb := &a.Header, &b.Header
	switch {
	case !bytes.Equal(ha.Spec, hb.Spec) || ha.Seed != hb.Seed || ha.Shards != hb.Shards ||
		ha.Window != hb.Window || ha.CheckpointEvery != hb.CheckpointEvery || ha.Cars != hb.Cars:
		return "header"
	case a.End != b.End:
		return "end record"
	case len(a.Windows) != len(b.Windows):
		return "window count"
	case len(a.Checkpoints) != len(b.Checkpoints):
		return "checkpoint count"
	}
	var ea, eb Enc
	for i := range a.Windows {
		ea.Reset()
		eb.Reset()
		a.Windows[i].state(Encoder(&ea))
		b.Windows[i].state(Encoder(&eb))
		if !bytes.Equal(ea.Bytes(), eb.Bytes()) {
			return fmt.Sprintf("window %d", i+1)
		}
	}
	for k, ca := range a.Checkpoints {
		cb, ok := b.Checkpoints[k]
		if !ok || ca.Index != cb.Index || ca.Edge != cb.Edge || !bytes.Equal(ca.State, cb.State) {
			return fmt.Sprintf("checkpoint %d", k)
		}
	}
	return ""
}

// TestParseAliasesCheckpoints: Parse copies no checkpoint. Parsing a trace
// whose bytes are nearly all checkpoint state allocates under 1% of the
// trace, and every blob it hands out is capped at its length, so an append
// to one cannot write into the caller's bytes.
func TestParseAliasesCheckpoints(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, &Header{
		Spec: []byte(`{"scenario":"highway"}`), Seed: 1, Shards: 2,
		Window: 100_000_000, CheckpointEvery: 10, Cars: 1200,
	})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	const windows, every, stateLen = 40, 10, 1 << 20
	for i := uint64(1); i <= windows; i++ {
		if err := w.WriteWindow(&WindowRecord{Index: i, Edge: int64(i) * 100_000_000, Digest: i}); err != nil {
			t.Fatalf("WriteWindow: %v", err)
		}
		if i%every == 0 {
			ck := CheckpointRecord{Index: i, Edge: int64(i) * 100_000_000, State: bytes.Repeat([]byte{byte(i)}, stateLen)}
			if err := w.WriteCheckpoint(&ck); err != nil {
				t.Fatalf("WriteCheckpoint: %v", err)
			}
		}
	}
	if err := w.Close(&EndRecord{Windows: windows, Digest: windows}); err != nil {
		t.Fatalf("Close: %v", err)
	}
	data := buf.Bytes()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c, err := Parse(data)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc*100 >= uint64(len(data)) {
		t.Fatalf("Parse allocated %d B for a %d B trace, want under 1%%", alloc, len(data))
	}

	before := bytes.Clone(data)
	blobs := map[string][]byte{"header spec": c.Header.Spec}
	for k, ck := range c.Checkpoints {
		if len(ck.State) != stateLen || ck.State[0] != byte(k) {
			t.Fatalf("checkpoint %d decoded wrong", k)
		}
		blobs[fmt.Sprintf("checkpoint %d", k)] = ck.State
	}
	for name, b := range blobs {
		if cap(b) != len(b) {
			t.Errorf("%s: cap %d != len %d", name, cap(b), len(b))
		}
		_ = append(b, 0xEE)
	}
	if !bytes.Equal(data, before) {
		t.Fatal("appending to a parsed blob wrote into the trace bytes")
	}
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
	if err := w.WriteCheckpoint(&CheckpointRecord{Index: 1, Edge: 1, State: []byte{1, 2, 3}}); err != nil {
		return nil
	}
	if err := w.Close(&EndRecord{Windows: 1, Digest: 2}); err != nil {
		return nil
	}
	return buf.Bytes()
}
