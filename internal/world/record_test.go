package world

import (
	"bytes"
	"errors"
	"testing"

	"karyon/internal/sim"
	"karyon/internal/trace"
)

func recordTrace(t *testing.T, seed int64, shards int, cfg HighwayConfig, dur sim.Time, every int, jams []JamSpec, perturb uint64) []byte {
	t.Helper()
	h, err := BuildHighway(seed, shards, cfg)
	if err != nil {
		t.Fatalf("BuildHighway: %v", err)
	}
	if err := h.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	for _, j := range jams {
		burst := j.Burst
		h.Schedule(j.At, func() { h.JamV2V(burst) })
	}
	var buf bytes.Buffer
	spec := TraceSpec{
		Scenario: "highway", Seed: seed, Shards: shards, Duration: dur,
		Config: cfg, Jams: jams, PerturbWindow: perturb,
	}
	if err := h.RecordTo(&buf, spec, every); err != nil {
		t.Fatalf("RecordTo: %v", err)
	}
	if err := h.Run(dur); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := h.FinishRecording(); err != nil {
		t.Fatalf("FinishRecording: %v", err)
	}
	return buf.Bytes()
}

func testJams() []JamSpec {
	return []JamSpec{{At: 2 * sim.Second, Burst: sim.Second}, {At: 5 * sim.Second, Burst: sim.Second / 2}}
}

// TestRecordShardWidthInvariance: the recorded windows — digests,
// counters, and every barrier decision — are identical at widths 1/2/4/8.
// Only the Crossers telemetry may differ.
func TestRecordShardWidthInvariance(t *testing.T) {
	cfg := DefaultHighwayConfig()
	cfg.Cars = 24
	dur := 8 * sim.Second
	var ref *trace.Contents
	for _, shards := range []int{1, 2, 4, 8} {
		data := recordTrace(t, 11, shards, cfg, dur, 0, testJams(), 0)
		c, err := trace.Parse(data)
		if err != nil {
			t.Fatalf("shards=%d: Parse: %v", shards, err)
		}
		if ref == nil {
			ref = c
			continue
		}
		if len(c.Windows) != len(ref.Windows) {
			t.Fatalf("shards=%d: %d windows, want %d", shards, len(c.Windows), len(ref.Windows))
		}
		for i := range c.Windows {
			if !c.Windows[i].Same(&ref.Windows[i]) {
				t.Fatalf("shards=%d: window %d differs from width-1 recording:\n got %+v\nwant %+v",
					shards, i+1, c.Windows[i], ref.Windows[i])
			}
		}
	}
}

// TestReplayRoundTrip: every window range replays byte-identically, from
// the nearest checkpoint when one precedes the range.
func TestReplayRoundTrip(t *testing.T) {
	cfg := DefaultHighwayConfig()
	cfg.Cars = 24
	dur := 8 * sim.Second // 80 windows
	data := recordTrace(t, 17, 4, cfg, dur, 20, testJams(), 0)

	cases := []struct {
		from, to, wantCk uint64
	}{
		{0, 0, 0},    // full range from genesis (no checkpoint before window 1)
		{1, 30, 0},   // prefix, genesis
		{21, 40, 20}, // starts right after the first checkpoint
		{45, 60, 40}, // mid-run range from the second checkpoint
		{61, 80, 60}, // tail from the third
		{80, 80, 60}, // single final window
	}
	for _, tc := range cases {
		res, err := ReplayTrace(data, ReplayOptions{From: tc.from, To: tc.to})
		if err != nil {
			t.Fatalf("Replay %d:%d: %v", tc.from, tc.to, err)
		}
		if res.Checkpoint != tc.wantCk {
			t.Errorf("Replay %d:%d used checkpoint %d, want %d", tc.from, tc.to, res.Checkpoint, tc.wantCk)
		}
	}
}

// TestReplayCrossWidth: a trace recorded at one width replays cleanly at
// another — the digests and decisions are width-invariant.
func TestReplayCrossWidth(t *testing.T) {
	cfg := DefaultHighwayConfig()
	cfg.Cars = 24
	data := recordTrace(t, 19, 1, cfg, 6*sim.Second, 15, nil, 0)
	for _, shards := range []int{2, 4} {
		if _, err := ReplayTrace(data, ReplayOptions{From: 16, To: 45, Shards: shards}); err != nil {
			t.Fatalf("replay at width %d: %v", shards, err)
		}
	}
}

// TestReplayMediumWorld: the slot-level radio medium checkpoints and
// replays exactly, including its per-receiver stream states.
func TestReplayMediumWorld(t *testing.T) {
	cfg := DefaultHighwayConfig()
	cfg.Cars = 20
	cfg.Medium = true
	data := recordTrace(t, 23, 2, cfg, 6*sim.Second, 20, testJams(), 0)
	res, err := ReplayTrace(data, ReplayOptions{From: 30, To: 60})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if res.Checkpoint != 20 {
		t.Fatalf("used checkpoint %d, want 20", res.Checkpoint)
	}
}

// TestReplayDetectsDivergence: replaying a perturbed recording under a
// de-perturbed spec diverges exactly at perturbWindow+1 — the barrier
// sets a brake flag the NEXT window's control steps read.
func TestReplayDetectsDivergence(t *testing.T) {
	cfg := DefaultHighwayConfig()
	cfg.Cars = 24
	const perturbAt = 30
	data := recordTrace(t, 29, 2, cfg, 6*sim.Second, 0, nil, perturbAt)

	// Sanity: the perturbed trace replays cleanly against itself.
	if _, err := ReplayTrace(data, ReplayOptions{}); err != nil {
		t.Fatalf("self-replay of perturbed trace: %v", err)
	}

	// Strip the perturbation from the spec: the replayed world now runs
	// unperturbed and must diverge at window perturbAt+1.
	c, err := trace.Parse(data)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	clean := recordTrace(t, 29, 2, cfg, 6*sim.Second, 0, nil, 0)
	cc, err := trace.Parse(clean)
	if err != nil {
		t.Fatalf("Parse clean: %v", err)
	}
	first := uint64(0)
	for i := range c.Windows {
		if c.Windows[i].Digest != cc.Windows[i].Digest {
			first = c.Windows[i].Index
			break
		}
	}
	if first != perturbAt+1 {
		t.Fatalf("first divergent window %d, want %d", first, perturbAt+1)
	}

	// And the replay verifier reports the same window when an
	// unperturbed world runs against the perturbed recording.
	h, err := BuildHighway(29, 2, cfg)
	if err != nil {
		t.Fatalf("BuildHighway: %v", err)
	}
	if err := h.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	h.rec = &recorder{expect: c.Windows, strict: true}
	if err := h.Run(6 * sim.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	var div *DivergenceError
	if !errors.As(h.rec.err, &div) {
		t.Fatalf("expected DivergenceError, got %v", h.rec.err)
	}
	if div.Window != perturbAt+1 {
		t.Fatalf("verifier reported window %d, want %d", div.Window, perturbAt+1)
	}
}

// TestReplay1200CarHighway is the acceptance-criteria run: a 1200-car
// highway, recorded with periodic checkpoints, where any window range
// replays from a checkpoint byte-identically to the original full run.
func TestReplay1200CarHighway(t *testing.T) {
	if testing.Short() {
		t.Skip("full-fidelity 1200-car recording; run without -short")
	}
	cfg := DefaultHighwayConfig()
	cfg.Cars = 1200
	cfg.Length = 10000
	cfg.V2VRange = 300
	dur := 12 * sim.Second // 120 windows
	data := recordTrace(t, 42, 8, cfg, dur, 40, testJams(), 0)
	for _, rng := range []struct{ from, to, wantCk uint64 }{
		{50, 90, 40},   // mid-run range from the first checkpoint
		{81, 120, 80},  // tail from the second
		{1, 120, 0},    // full run from genesis
		{115, 115, 80}, // single window
	} {
		res, err := ReplayTrace(data, ReplayOptions{From: rng.from, To: rng.to})
		if err != nil {
			t.Fatalf("Replay %d:%d: %v", rng.from, rng.to, err)
		}
		if res.Checkpoint != rng.wantCk {
			t.Errorf("Replay %d:%d used checkpoint %d, want %d", rng.from, rng.to, res.Checkpoint, rng.wantCk)
		}
	}
}

// TestRecordRequiresFreshWorld: attaching a recorder after windows have
// run is an error, not a silently partial trace.
func TestRecordRequiresFreshWorld(t *testing.T) {
	cfg := DefaultHighwayConfig()
	cfg.Cars = 8
	h, err := BuildHighway(3, 1, cfg)
	if err != nil {
		t.Fatalf("BuildHighway: %v", err)
	}
	if err := h.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := h.Run(sim.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	var buf bytes.Buffer
	if err := h.RecordTo(&buf, TraceSpec{Config: cfg}, 0); err == nil {
		t.Fatal("RecordTo after windows ran must fail")
	}
}
