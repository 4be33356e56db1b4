package main

import (
	"bytes"
	"testing"

	"karyon/internal/sim"
	"karyon/internal/world"
)

// tinyWorld is a world small enough for a unit test that still crosses
// shard boundaries and runs the slot-level radio with a jam burst.
func tinyWorld() worldSpec {
	cfg := world.DefaultHighwayConfig()
	cfg.Cars = 60
	cfg.Length = 3000
	cfg.Loss = 0.05
	cfg.Medium = true
	cfg.CarrierSense = true
	return worldSpec{cfg: cfg, warmup: sim.Second, chunk: 5, setups: 1,
		jamEvery: sim.Second, jamBurst: 200 * sim.Millisecond}
}

// TestTracerPerturbsNothing: a world with the benchmark's hooks registered
// simulates byte for byte what the same world without them does, and the
// tracer accounts for every window.
func TestTracerPerturbsNothing(t *testing.T) {
	ws := tinyWorld()
	const ops = 8
	run := func(traced bool) (*worldRun, *windowTracer) {
		h, err := ws.setup(7)
		if err != nil {
			t.Fatal(err)
		}
		var tr *windowTracer
		if traced {
			tr = attachTracer(h)
		}
		r := newWorldRun(ws, h, tr, newOutcome())
		if err := r.ops(ops); err != nil {
			t.Fatal(err)
		}
		if r.out.Failed != 0 {
			t.Fatalf("checks failed: %v", r.out.Notes)
		}
		return r, tr
	}
	plain, _ := run(false)
	traced, tr := run(true)
	if a, b := worldDigest(plain.h), worldDigest(traced.h); a != b {
		t.Fatalf("traced outcome %s, untraced %s", b, a)
	}
	if got, want := len(tr.wall), ops*ws.chunk; got != want {
		t.Fatalf("tracer saw %d windows, want %d", got, want)
	}
	for i := range tr.wall {
		if tr.shardMax[i]+tr.barrier[i] != tr.wall[i] || tr.barrier[i] < 0 {
			t.Fatalf("window %d: shard max %v + barrier %v != wall %v", i, tr.shardMax[i], tr.barrier[i], tr.wall[i])
		}
	}
	if u := tr.unaccounted(); u < 0 || u >= 1 {
		t.Fatalf("unaccounted fraction %v", u)
	}
}

// TestSinkMeterPerturbsNothing: recording through the traced sink writes
// the same trace bytes as recording straight into memory.
func TestSinkMeterPerturbsNothing(t *testing.T) {
	ws := tinyWorld()
	ws.jamEvery = 0
	ws.chunk = recordWindows / 30
	record := func(traced bool) []byte {
		h, err := ws.build(3)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		var tr *windowTracer
		var sink interface{ Write([]byte) (int, error) } = &buf
		if traced {
			tr = attachTracer(h)
			sink = &sinkMeter{w: &buf, tr: tr}
		}
		if _, err := recordTrace(3, ws, h, sink, tr, newOutcome()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	plain, traced := record(false), record(true)
	if !bytes.Equal(plain, traced) {
		t.Fatalf("traced recording %d B differs from untraced %d B", len(traced), len(plain))
	}
	if _, err := world.ReplayTrace(traced, world.ReplayOptions{From: 51, To: 55, Shards: 1}); err != nil {
		t.Fatalf("replaying the traced recording: %v", err)
	}
}
