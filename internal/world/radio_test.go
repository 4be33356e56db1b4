package world

import (
	"encoding/json"
	"fmt"
	"testing"

	"karyon/internal/core"
	"karyon/internal/sim"
)

// mediumHighwayConfig is the medium-backed counterpart of the invariance
// suite's config: slot-level radio on, carrier sense on, lossy channel,
// two lanes so maneuvers ride along.
func mediumHighwayConfig() HighwayConfig {
	cfg := DefaultHighwayConfig() // 2 km, 30 cars: feasible up to 8 shards
	cfg.Lanes = 2
	cfg.Medium = true
	cfg.CarrierSense = true
	cfg.Channels = 2
	cfg.Loss = 0.05
	return cfg
}

// mediumHighwayFingerprint runs a medium-backed highway with a jam burst
// whose window straddles several barriers, and serializes everything
// observable — physics, LoS, beacon accounting, slot-level medium stats,
// and the inaccessibility histogram.
func mediumHighwayFingerprint(t *testing.T, seed int64, shards int, cfg HighwayConfig, d sim.Time) string {
	t.Helper()
	h, err := BuildHighway(seed, shards, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Kernel().Shards(); got != shards {
		t.Fatalf("wanted %d shards, partition gave %d", shards, got)
	}
	// The burst lands at a barrier (Schedule always does) but its interval
	// [2.5 s, 2.85 s) straddles the next three window edges and dies
	// mid-window — the exact shape a width-dependent jam model would get
	// wrong.
	h.Schedule(2500*sim.Millisecond, func() { h.JamV2V(350 * sim.Millisecond) })
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	if err := h.Run(d); err != nil {
		t.Fatal(err)
	}
	sent, delivered, lost := h.BeaconStats()
	levels := map[core.LoS]int{}
	var xs []float64
	for _, c := range h.Cars() {
		levels[c.LoS()]++
		xs = append(xs, c.Body.X)
	}
	inacc := h.Inaccessibility()
	js, err := json.Marshal(map[string]any{
		"collisions": h.Collisions,
		"mean_speed": h.MeanSpeed(),
		"sent":       sent, "delivered": delivered, "lost": lost,
		"los1": levels[1], "los2": levels[2], "los3": levels[3],
		"positions": xs,
		"medium":    h.MediumStats(),
		"inacc_n":   inacc.Count(),
		"inacc_max": inacc.Max(),
		"events":    h.Kernel().Executed(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(js)
}

// The tentpole invariant, medium edition: the slot-level radio inside the
// sharded highway produces byte-identical output at widths 1/2/4/8.
func TestHighwayMediumShardCountInvariance(t *testing.T) {
	cfg := mediumHighwayConfig()
	dur := 10 * sim.Second
	if testing.Short() {
		dur = 4 * sim.Second
	}
	base := mediumHighwayFingerprint(t, 42, 1, cfg, dur)
	for _, shards := range []int{2, 4, 8} {
		if got := mediumHighwayFingerprint(t, 42, shards, cfg, dur); got != base {
			t.Fatalf("shards=%d changed output:\n1 shard: %s\n%d shards: %s", shards, base, shards, got)
		}
	}
	if other := mediumHighwayFingerprint(t, 43, 2, cfg, dur); other == base {
		t.Fatal("different seeds produced identical output")
	}
}

// The medium must actually carry the cooperation: beacons delivered
// through it feed the state tables, so a healthy fleet reaches LoS3 just
// as it does on the abstract path.
func TestHighwayMediumCarriesCooperation(t *testing.T) {
	cfg := DefaultHighwayConfig()
	cfg.Cars = 10
	cfg.Length = 1000
	cfg.Medium = true
	cfg.CarrierSense = true
	h, err := BuildHighway(2, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	if err := h.Run(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	atTop := 0
	for _, c := range h.Cars() {
		if c.LoS() == 3 {
			atTop++
		}
	}
	if atTop < len(h.Cars())/2 {
		t.Fatalf("only %d/%d cars reached LoS3 over the slot-level medium", atTop, len(h.Cars()))
	}
	st := h.MediumStats()
	if st.Sent == 0 || st.Delivered == 0 {
		t.Fatalf("medium carried nothing: %+v", st)
	}
	if h.Collisions != 0 {
		t.Fatalf("%d vehicle collisions in a nominal medium-backed run", h.Collisions)
	}
}

// Jamming the medium must force the fleet out of LoS3, record the outage
// in the inaccessibility histogram, and let the fleet recover afterwards.
func TestHighwayMediumJamForcesDowngradeAndRecovers(t *testing.T) {
	cfg := DefaultHighwayConfig()
	cfg.Cars = 8
	cfg.Length = 1000
	cfg.Medium = true
	h, err := BuildHighway(5, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	if err := h.Run(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	h.JamV2V(5 * sim.Second)
	if err := h.Run(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	for i, c := range h.Cars() {
		if c.LoS() >= 3 {
			t.Fatalf("car %d still cooperative during a medium jam", i)
		}
	}
	if err := h.Run(20 * sim.Second); err != nil {
		t.Fatal(err)
	}
	recovered := 0
	for _, c := range h.Cars() {
		if c.LoS() == 3 {
			recovered++
		}
	}
	if recovered < len(h.Cars())/2 {
		t.Fatalf("only %d cars recovered LoS3 after the jam", recovered)
	}
	if h.MediumStats().Jammed == 0 {
		t.Fatal("jam dropped no frames on the medium")
	}
	inacc := h.Inaccessibility()
	if inacc.Count() == 0 {
		t.Fatal("outage not recorded in the inaccessibility histogram")
	}
	// The recorded outage must cover (roughly) the 5 s burst.
	if max := inacc.Max(); max < 4500 || max > 6000 {
		t.Fatalf("outage duration %v ms, want ~5000", max)
	}
	if h.Collisions != 0 {
		t.Fatalf("%d collisions across the jam transition", h.Collisions)
	}
}

// A jam still raging when the run ends must appear in the
// inaccessibility histogram as an outage closed at the last window edge —
// not silently vanish — and reading it twice must not double-count.
func TestHighwayMediumOpenOutageCountedAtRunEnd(t *testing.T) {
	cfg := DefaultHighwayConfig()
	cfg.Cars = 8
	cfg.Length = 1000
	cfg.Medium = true
	h, err := BuildHighway(5, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	if err := h.Run(8 * sim.Second); err != nil {
		t.Fatal(err)
	}
	h.JamV2V(5 * sim.Second) // outlives the run by 3 s
	if err := h.Run(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	inacc := h.Inaccessibility()
	if inacc.Count() != 1 {
		t.Fatalf("open outage not flushed: %d outages recorded", inacc.Count())
	}
	if max := inacc.Max(); max < 1500 || max > 2100 {
		t.Fatalf("flushed outage %v ms, want ~2000 (jam start to run end)", max)
	}
	if again := h.Inaccessibility(); again.Count() != 1 || again.Max() != inacc.Max() {
		t.Fatal("Inaccessibility() is not idempotent")
	}
}

// mediumIntersectionFingerprint serializes everything observable about a
// medium-backed intersection run: live-car states (including each car's
// radio belief), crossing/conflict totals, and the medium accounting.
func mediumIntersectionFingerprint(t *testing.T, seed int64, shards int, cfg IntersectionConfig, d sim.Time) string {
	t.Helper()
	w, err := BuildIntersection(seed, shards, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A jam burst injected at a barrier whose interval [40 s, 40.73 s)
	// straddles seven window edges and ends mid-window.
	w.Schedule(40*sim.Second, func() { w.JamV2V(730 * sim.Millisecond) })
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(d); err != nil {
		t.Fatal(err)
	}
	var state []string
	for _, c := range w.cars {
		state = append(state, fmt.Sprintf("%d:%s:%.6f:%.6f:%v:%v:%v:%v",
			c.id, c.road, c.body.X, c.body.Speed, c.done, c.waited, c.lastRx, c.haveRx))
	}
	js, err := json.Marshal(map[string]any{
		"crossed_ns": w.Crossed[RoadNS],
		"crossed_ew": w.Crossed[RoadEW],
		"conflicts":  w.Conflicts,
		"wait_p95":   w.WaitTimes.Percentile(95),
		"active":     w.ActiveCars(),
		"cars":       state,
		"medium":     w.medium.Stats(),
		"events":     w.Kernel().Executed(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(js)
}

// The medium-backed intersection must be byte-identical across widths
// 1/2/4, with the light failure straddling a window barrier AND a jam
// burst straddling several more.
func TestIntersectionMediumShardCountInvariance(t *testing.T) {
	cfg := DefaultIntersectionConfig()
	cfg.Medium = true
	cfg.Loss = 0.02
	cfg.LightFailsAt = 30*sim.Second + 37*sim.Millisecond // straddles a window barrier
	dur := 80 * sim.Second
	if testing.Short() {
		dur = 50 * sim.Second
	}
	base := mediumIntersectionFingerprint(t, 42, 1, cfg, dur)
	for _, shards := range []int{2, 4} {
		if got := mediumIntersectionFingerprint(t, 42, shards, cfg, dur); got != base {
			t.Fatalf("shards=%d changed output:\n1 shard: %s\n%d shards: %s", shards, base, shards, got)
		}
	}
	if other := mediumIntersectionFingerprint(t, 43, 2, cfg, dur); other == base {
		t.Fatal("different seeds produced identical output")
	}
}

// Over the medium, a healthy light keeps traffic flowing conflict-free,
// the failure hands over to the virtual light, and a jam that silences
// the beacons makes approaching cars fail safe (treat the crossing as
// red) rather than guess.
func TestIntersectionMediumTakeoverAndJamFailSafe(t *testing.T) {
	cfg := DefaultIntersectionConfig()
	cfg.Medium = true
	cfg.LightFailsAt = 60 * sim.Second
	w, err := BuildIntersection(11, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(60 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if w.medium.Stats().Delivered == 0 {
		t.Fatal("no light beacons delivered over the medium")
	}
	before := w.Crossed[RoadNS] + w.Crossed[RoadEW]
	if before < 5 {
		t.Fatalf("only %d vehicles crossed under a healthy radio light", before)
	}
	if err := w.Run(4 * sim.Minute); err != nil {
		t.Fatal(err)
	}
	after := w.Crossed[RoadNS] + w.Crossed[RoadEW]
	if w.Conflicts != 0 {
		t.Fatalf("%d conflicts across the virtual takeover", w.Conflicts)
	}
	if after-before < 15 {
		t.Fatalf("traffic stalled after light failure: %d crossed in 4 min", after-before)
	}
	// Jam the (virtual) channel: cars must keep failing safe.
	w.JamV2V(20 * sim.Second)
	if err := w.Run(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if w.Conflicts != 0 {
		t.Fatalf("%d conflicts across a jam on the virtual light", w.Conflicts)
	}
}

// The retiree-compaction regression lock: a long-horizon intersection run
// must produce identical observable output with compaction on and off,
// and the live list must actually stay bounded by the traffic on the
// road rather than the spawn history.
func TestIntersectionRetireeCompactionKeepsFingerprint(t *testing.T) {
	cfg := DefaultIntersectionConfig()
	// Arrivals slow enough that the crossing capacity drains the queues:
	// the long horizon then retires most of its spawn history.
	cfg.MeanArrival = 7 * sim.Second
	dur := 10 * sim.Minute
	if testing.Short() {
		dur = 4 * sim.Minute
	}
	fingerprint := func(compact bool) (string, int, int) {
		old := compactRetirees
		compactRetirees = compact
		defer func() { compactRetirees = old }()
		w, err := BuildIntersection(9, 1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		if err := w.Run(dur); err != nil {
			t.Fatal(err)
		}
		var state []string
		for _, c := range w.cars {
			if c.done {
				continue // live view only: retirees are summarized in Crossed/WaitTimes
			}
			state = append(state, fmt.Sprintf("%d:%s:%.6f:%.6f:%v",
				c.id, c.road, c.body.X, c.body.Speed, c.waited))
		}
		js, err := json.Marshal(map[string]any{
			"crossed_ns": w.Crossed[RoadNS],
			"crossed_ew": w.Crossed[RoadEW],
			"conflicts":  w.Conflicts,
			"wait_n":     w.WaitTimes.Count(),
			"wait_p95":   w.WaitTimes.Percentile(95),
			"wait_mean":  w.WaitTimes.Mean(),
			"active":     w.ActiveCars(),
			"cars":       state,
			"events":     w.Kernel().Executed(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return string(js), len(w.cars), w.nextID - firstCarID
	}
	compacted, live, spawned := fingerprint(true)
	uncompacted, retained, _ := fingerprint(false)
	if compacted != uncompacted {
		t.Fatalf("compaction changed observable output:\ncompacted:   %s\nuncompacted: %s", compacted, uncompacted)
	}
	if spawned < 60 {
		t.Fatalf("horizon too short to prove anything: only %d cars spawned", spawned)
	}
	if retained != spawned {
		t.Fatalf("uncompacted run should retain every spawn: %d vs %d", retained, spawned)
	}
	if live > spawned/3 {
		t.Fatalf("compaction retained %d of %d spawned cars — scans still grow with history", live, spawned)
	}
}

// Carrier sense must trade collisions for latency on a contended channel:
// with CSMA on, audible same-slot overlap is resolved by backing off to
// the instant the channel clears (retry-within-window), so collisions
// drop and retries appear. Deferred now counts only frames whose window
// could not fit a retry — backoff shows up as beacon age, not loss.
func TestHighwayMediumCarrierSenseTradesCollisionsForRetries(t *testing.T) {
	run := func(cs bool) (collisions, deferred, retries, sent int64) {
		cfg := DefaultHighwayConfig()
		cfg.Cars = 60 // dense: 33 m spacing, ~15 neighbors in range
		cfg.Length = 2000
		cfg.Medium = true
		cfg.CarrierSense = cs
		h, err := BuildHighway(11, 1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Start(); err != nil {
			t.Fatal(err)
		}
		if err := h.Run(20 * sim.Second); err != nil {
			t.Fatal(err)
		}
		st := h.MediumStats()
		return st.Collisions, st.Deferred, st.Retries, st.Sent
	}
	bareCol, bareDef, bareRetry, _ := run(false)
	csCol, csDef, csRetry, csSent := run(true)
	if bareDef != 0 || bareRetry != 0 {
		t.Fatalf("bare medium deferred %d / retried %d frames", bareDef, bareRetry)
	}
	if bareCol == 0 {
		t.Fatal("dense bare channel produced no collisions — contention model inert")
	}
	if csRetry == 0 {
		t.Fatal("carrier sense never retried on a dense channel")
	}
	if csCol >= bareCol {
		t.Fatalf("carrier sense did not reduce collisions: %d (CSMA) vs %d (bare)", csCol, bareCol)
	}
	// Retry-within-window converts deferral loss into latency: nearly every
	// queued frame still goes on air (only retries that cannot fit before
	// the edge are dropped).
	if csSent == 0 || csDef > csSent/10 {
		t.Fatalf("retry-within-window still dropped too much: %d deferred vs %d sent", csDef, csSent)
	}
}
