package world

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"karyon/internal/core"
	"karyon/internal/sensor"
	"karyon/internal/sim"
)

func buildHighway(t *testing.T, seed int64, shards int, cfg HighwayConfig) *Highway {
	t.Helper()
	h, err := BuildHighway(seed, shards, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func runHighway(t *testing.T, seed int64, cfg HighwayConfig, d sim.Time) *Highway {
	t.Helper()
	h := buildHighway(t, seed, 1, cfg)
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	if err := h.Run(d); err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHighwayValidation(t *testing.T) {
	bad := DefaultHighwayConfig()
	bad.Cars = 0
	if _, err := BuildHighway(1, 1, bad); err == nil {
		t.Fatal("zero cars accepted")
	}
	bad = DefaultHighwayConfig()
	bad.ControlPeriod = 0
	if _, err := BuildHighway(1, 1, bad); err == nil {
		t.Fatal("zero control period accepted")
	}
	bad = DefaultHighwayConfig()
	bad.V2VPeriod = 130 * sim.Millisecond
	if _, err := BuildHighway(1, 1, bad); err == nil {
		t.Fatal("non-multiple V2V period accepted")
	}
	wrongWindow, err := sim.NewShardedKernel(1, 2, sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewHighway(wrongWindow, DefaultHighwayConfig()); err == nil {
		t.Fatal("window != control period accepted")
	}
	// BuildHighway clamps an over-wide partition instead of failing.
	cfg := DefaultHighwayConfig() // 2 km ring, 250 m reach: at most 8 shards
	h, err := BuildHighway(1, 64, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Kernel().Shards(); got != 8 {
		t.Fatalf("shards clamped to %d, want 8", got)
	}
}

func TestHighwayNominalNoCollisions(t *testing.T) {
	cfg := DefaultHighwayConfig()
	cfg.Cars = 15
	cfg.Length = 1500
	h := runHighway(t, 1, cfg, 60*sim.Second)
	if h.Collisions != 0 {
		t.Fatalf("nominal run produced %d collisions", h.Collisions)
	}
	if h.MeanSpeed() < 5 {
		t.Fatalf("fleet barely moving: %v m/s", h.MeanSpeed())
	}
	if h.TimeGaps.Count() == 0 {
		t.Fatal("no time gaps recorded")
	}
}

func TestHighwayAdaptiveReachesCooperativeLevel(t *testing.T) {
	cfg := DefaultHighwayConfig()
	cfg.Cars = 10
	cfg.Length = 1000
	h := runHighway(t, 2, cfg, 30*sim.Second)
	atTop := 0
	for _, c := range h.Cars() {
		if c.LoS() == 3 {
			atTop++
		}
	}
	if atTop < len(h.Cars())/2 {
		t.Fatalf("only %d/%d cars reached LoS3 with healthy sensors and V2V",
			atTop, len(h.Cars()))
	}
}

func TestHighwayNoV2VCapsAtLevel2(t *testing.T) {
	cfg := DefaultHighwayConfig()
	cfg.Cars = 8
	cfg.Length = 1000
	cfg.V2VPeriod = 0 // no communication
	h := runHighway(t, 3, cfg, 30*sim.Second)
	for i, c := range h.Cars() {
		if c.LoS() > 2 {
			t.Fatalf("car %d at %v without any V2V", i, c.LoS())
		}
		if c.LoS() != 2 {
			t.Fatalf("car %d at %v, want LoS2 from healthy local sensing", i, c.LoS())
		}
	}
}

func TestHighwaySensorFaultForcesDowngrade(t *testing.T) {
	cfg := DefaultHighwayConfig()
	cfg.Cars = 8
	cfg.Length = 1000
	h := buildHighway(t, 4, 1, cfg)
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	if err := h.Run(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	victim := h.Cars()[3]
	if victim.LoS() != 3 {
		t.Fatalf("setup: victim at %v", victim.LoS())
	}
	// A single stuck transducer is masked by the triple-redundant fusion:
	// no downgrade, but the faulty input is flagged as suspect.
	victim.DistanceSensor().Physical().Inject(sensor.Fault{Mode: sensor.FaultStuckAt})
	if err := h.Run(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if victim.LoS() < 2 {
		t.Fatalf("single masked fault dropped victim to %v", victim.LoS())
	}
	if !victim.FusedSensor().Suspected(victim.DistanceSensor().Name()) {
		t.Fatal("masked faulty transducer not flagged as suspect")
	}
	// Total perception loss: all three transducers stuck. Now the fused
	// validity collapses and the kernel must fall to the safe level.
	for _, in := range victim.SensorInputs() {
		in.Physical().Inject(sensor.Fault{Mode: sensor.FaultStuckAt})
	}
	if err := h.Run(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if victim.LoS() != core.LevelSafe {
		t.Fatalf("victim still at %v with all sensors stuck", victim.LoS())
	}
	if h.Collisions != 0 {
		t.Fatalf("%d collisions despite kernel downgrade", h.Collisions)
	}
	// Other cars keep at least the validated-local-perception level. (They
	// may legitimately leave LoS3: once the victim stops, its followers
	// queue behind it and a leader can end up beyond V2V radio range.)
	healthy := h.Cars()[6]
	if healthy.LoS() < 2 {
		t.Fatalf("healthy car dragged down to %v", healthy.LoS())
	}
}

func TestHighwayJamForcesDowngradeFromLoS3(t *testing.T) {
	cfg := DefaultHighwayConfig()
	cfg.Cars = 8
	cfg.Length = 1000
	h := buildHighway(t, 5, 1, cfg)
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	if err := h.Run(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	// Jam V2V for 5 s: all cars must leave LoS3 (no fresh cooperation).
	h.JamV2V(5 * sim.Second)
	if err := h.Run(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	for i, c := range h.Cars() {
		if c.LoS() >= 3 {
			t.Fatalf("car %d still cooperative during jam", i)
		}
	}
	// After the jam ends, the fleet recovers.
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
		t.Fatalf("only %d cars recovered LoS3 after jam", recovered)
	}
	if h.Collisions != 0 {
		t.Fatalf("%d collisions across jam transition", h.Collisions)
	}
}

func TestHighwayFixedLoSGapOrdering(t *testing.T) {
	// Higher fixed LoS → smaller time gaps → higher flow. This is E2's
	// monotone trade-off shape.
	flows := map[core.LoS]float64{}
	for _, level := range []core.LoS{1, 2, 3} {
		cfg := DefaultHighwayConfig()
		// Dense enough (30 m spacing) that the headway policy binds.
		cfg.Cars = 40
		cfg.Length = 1200
		cfg.Mode = ModeFixed
		cfg.FixedLoS = level
		h := runHighway(t, 7, cfg, 90*sim.Second)
		if h.Collisions != 0 {
			t.Fatalf("fixed LoS%d produced %d collisions", level, h.Collisions)
		}
		flows[level] = h.Flow()
	}
	if !(flows[3] > flows[2] && flows[2] > flows[1]) {
		t.Fatalf("flow not monotone in LoS: %v", flows)
	}
}

func TestHighwayRecklessModeCrashesUnderFault(t *testing.T) {
	// The contrast experiment: highest level, validity ignored, no gate.
	// A stuck sensor then produces collisions — the hazard the safety
	// kernel exists to prevent.
	cfg := DefaultHighwayConfig()
	cfg.Cars = 12
	cfg.Length = 800
	cfg.Mode = ModeReckless
	cfg.FixedLoS = 3
	cfg.V2VPeriod = 0 // isolate the sensor-fault path: no cooperative rescue
	h := buildHighway(t, 8, 1, cfg)
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	if err := h.Run(20 * sim.Second); err != nil {
		t.Fatal(err)
	}
	// Freeze all transducers of three cars (total perception loss), then
	// brake each of their leaders hard: the frozen gap hides the closing
	// leader and the reckless baseline ignores the collapsed validity.
	for _, idx := range []int{2, 5, 8} {
		for _, in := range h.Cars()[idx].SensorInputs() {
			in.Physical().Inject(sensor.Fault{Mode: sensor.FaultStuckAt})
		}
		h.Cars()[idx+1].ForceBrake(h.Now(), 6*sim.Second)
	}
	if err := h.Run(40 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if h.Collisions == 0 {
		t.Fatal("reckless baseline survived stuck sensors — contrast experiment lost its teeth")
	}
}

func TestHighwayKernelSurvivesSameFault(t *testing.T) {
	// Identical disturbance as the reckless test, but with the kernel on:
	// no collisions.
	cfg := DefaultHighwayConfig()
	cfg.Cars = 12
	cfg.Length = 800
	cfg.V2VPeriod = 0 // same conditions as the reckless contrast run
	h := buildHighway(t, 8, 1, cfg)
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	if err := h.Run(20 * sim.Second); err != nil {
		t.Fatal(err)
	}
	for _, idx := range []int{2, 5, 8} {
		for _, in := range h.Cars()[idx].SensorInputs() {
			in.Physical().Inject(sensor.Fault{Mode: sensor.FaultStuckAt})
		}
		h.Cars()[idx+1].ForceBrake(h.Now(), 6*sim.Second)
	}
	if err := h.Run(40 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if h.Collisions != 0 {
		t.Fatalf("kernel run produced %d collisions under the same fault", h.Collisions)
	}
}

func TestHighwaySeedSweepNoCollisions(t *testing.T) {
	// The zero-collision invariant must not be a lucky seed: sweep seeds
	// on a short nominal run.
	for seed := int64(100); seed < 110; seed++ {
		cfg := DefaultHighwayConfig()
		cfg.Cars = 12
		cfg.Length = 900
		h := runHighway(t, seed, cfg, 30*sim.Second)
		if h.Collisions != 0 {
			t.Fatalf("seed %d produced %d collisions", seed, h.Collisions)
		}
	}
}

func TestMultiLaneOvertaking(t *testing.T) {
	// A slow truck in lane 0; the rest of the fleet overtakes through
	// barrier-arbitrated lane changes. Safety invariant: zero collisions;
	// liveness: lane changes happen and the fleet is faster than it would
	// be stuck behind the truck.
	run := func(lanes int) (*Highway, int64) {
		cfg := DefaultHighwayConfig()
		cfg.Cars = 10
		cfg.Length = 1500
		cfg.Lanes = lanes
		h := buildHighway(t, 21, 1, cfg)
		h.Cars()[0].SetCruiseSpeed(10) // the truck
		if err := h.Start(); err != nil {
			t.Fatal(err)
		}
		if err := h.Run(3 * sim.Minute); err != nil {
			t.Fatal(err)
		}
		var changes int64
		for _, c := range h.Cars() {
			changes += c.LaneChanges
		}
		return h, changes
	}
	single, _ := run(1)
	double, changes := run(2)
	if single.Collisions != 0 || double.Collisions != 0 {
		t.Fatalf("collisions: single=%d double=%d", single.Collisions, double.Collisions)
	}
	if changes == 0 {
		t.Fatal("no lane changes on a two-lane road with a slow truck")
	}
	if double.MeanSpeed() <= single.MeanSpeed()+1 {
		t.Fatalf("overtaking bought nothing: %0.1f vs %0.1f m/s",
			double.MeanSpeed(), single.MeanSpeed())
	}
}

func TestMultiLaneSeedSweepNoCollisions(t *testing.T) {
	for seed := int64(30); seed < 42; seed++ {
		cfg := DefaultHighwayConfig()
		cfg.Cars = 14
		cfg.Length = 1200
		cfg.Lanes = 3
		h := buildHighway(t, seed, 1, cfg)
		h.Cars()[2].SetCruiseSpeed(12)
		h.Cars()[7].SetCruiseSpeed(15)
		if err := h.Start(); err != nil {
			t.Fatal(err)
		}
		if err := h.Run(90 * sim.Second); err != nil {
			t.Fatal(err)
		}
		if h.Collisions != 0 {
			t.Fatalf("seed %d: %d collisions on a 3-lane road", seed, h.Collisions)
		}
	}
}

// highwayFingerprint serializes everything observable about a run — the
// byte string the shard-count invariance test compares.
func highwayFingerprint(t *testing.T, seed int64, shards int, cfg HighwayConfig, d sim.Time) string {
	t.Helper()
	h := buildHighway(t, seed, shards, cfg)
	if got := h.Kernel().Shards(); got != shards {
		t.Fatalf("wanted %d shards, partition gave %d", shards, got)
	}
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	if err := h.Run(d); err != nil {
		t.Fatal(err)
	}
	sent, delivered, lost := h.BeaconStats()
	levels := map[core.LoS]int{}
	var ebrakes, changes int64
	var xs []float64
	for _, c := range h.Cars() {
		levels[c.LoS()]++
		ebrakes += c.EmergencyBrakes
		changes += c.LaneChanges
		xs = append(xs, c.Body.X)
	}
	js, err := json.Marshal(map[string]any{
		"collisions": h.Collisions,
		"mean_speed": h.MeanSpeed(),
		"flow":       h.Flow(),
		"min_gap":    h.TimeGaps.Min(),
		"p5_gap":     h.TimeGaps.Percentile(5),
		"sent":       sent, "delivered": delivered, "lost": lost,
		"los1": levels[1], "los2": levels[2], "los3": levels[3],
		"ebrakes": ebrakes, "lane_changes": changes,
		"positions": xs,
		"events":    h.Kernel().Executed(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(js)
}

// The tentpole invariant: the full-stack highway produces byte-identical
// output for every shard count — sharding affects wall time only.
func TestHighwayShardCountInvariance(t *testing.T) {
	cfg := DefaultHighwayConfig() // 2 km, 30 cars: feasible up to 8 shards
	cfg.Lanes = 2
	cfg.Loss = 0.1 // exercise the per-receiver loss streams
	dur := 10 * sim.Second
	if testing.Short() {
		dur = 3 * sim.Second
	}
	base := highwayFingerprint(t, 42, 1, cfg, dur)
	for _, shards := range []int{2, 4, 8} {
		if got := highwayFingerprint(t, 42, shards, cfg, dur); got != base {
			t.Fatalf("shards=%d changed output:\n1 shard: %s\n%d shards: %s", shards, base, shards, got)
		}
	}
	// Sanity: the output is seed-sensitive, so identical bytes above are
	// not a constant function.
	if other := highwayFingerprint(t, 43, 2, cfg, dur); other == base {
		t.Fatal("different seeds produced identical output")
	}
}

// Cars crossing arc boundaries must be handed off to the owning shard.
func TestHighwayHandoff(t *testing.T) {
	cfg := DefaultHighwayConfig()
	h := buildHighway(t, 7, 4, cfg)
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	if err := h.Run(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	for _, c := range h.Cars() {
		if want := h.part.ShardOf(c.Body.X); c.shard != want {
			t.Fatalf("car %d at %.1f owned by shard %d, want %d", c.ID, c.Body.X, c.shard, want)
		}
	}
}

// The sorted-snapshot leader lookup must agree with the old O(n) fleet
// scan on a random world — the regression lock for the hot-path rewrite.
func TestLeaderSnapshotMatchesScan(t *testing.T) {
	cfg := DefaultHighwayConfig()
	cfg.Cars = 60
	cfg.Lanes = 3
	h := buildHighway(t, 9, 1, cfg)
	rng := rand.New(rand.NewSource(99))
	for _, c := range h.Cars() {
		c.Body.X = rng.Float64() * cfg.Length
		c.Body.Lane = rng.Intn(cfg.Lanes)
		c.Body.Speed = 10 + 20*rng.Float64()
		if rng.Float64() < 0.2 {
			target := (c.Body.Lane + 1) % cfg.Lanes
			if err := c.maneuver.Begin(target, 3); err != nil {
				t.Fatal(err)
			}
		}
	}
	h.assignShards()
	h.publishSnapshot(0)

	// bruteLeader is the seed implementation: scan every car, keep the
	// nearest ahead sharing a lane.
	bruteLeader := func(c *Car) (int, float64) {
		bestID := -1
		bestGap := math.MaxFloat64
		for _, o := range h.Cars() {
			if o == c {
				continue
			}
			shared := false
			for lane := 0; lane < cfg.Lanes; lane++ {
				if c.occupies(lane) && o.occupies(lane) {
					shared = true
					break
				}
			}
			if !shared {
				continue
			}
			gap := math.Mod(o.Body.X-c.Body.X+cfg.Length, cfg.Length)
			if gap < bestGap {
				bestGap = gap
				bestID = o.ID
			}
		}
		return bestID, bestGap
	}
	for _, c := range h.Cars() {
		wantID, wantCenter := bruteLeader(c)
		e, gap := h.leaderAt(c)
		if wantID < 0 {
			if e != nil {
				t.Fatalf("car %d: snapshot found leader %d, scan found none", c.ID, e.id)
			}
			continue
		}
		if e == nil {
			t.Fatalf("car %d: scan found leader %d, snapshot found none", c.ID, wantID)
		}
		if e.id != wantID {
			t.Fatalf("car %d: snapshot leader %d, scan leader %d", c.ID, e.id, wantID)
		}
		if want := wantCenter - e.length; math.Abs(want-gap) > 1e-9 {
			t.Fatalf("car %d: snapshot gap %.6f, scan gap %.6f", c.ID, gap, want)
		}
	}
}

func TestIntersectionValidation(t *testing.T) {
	bad := DefaultIntersectionConfig()
	bad.BoxLength = 0
	if _, err := BuildIntersection(1, 1, bad); err == nil {
		t.Fatal("zero box accepted")
	}
	bad = DefaultIntersectionConfig()
	bad.GreenFor = 0
	if _, err := BuildIntersection(1, 1, bad); err == nil {
		t.Fatal("zero green accepted")
	}
	wrongWindow, err := sim.NewShardedKernel(1, 2, sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewIntersection(wrongWindow, DefaultIntersectionConfig()); err == nil {
		t.Fatal("window != control period accepted")
	}
}

func runIntersection(t *testing.T, seed int64, shards int, cfg IntersectionConfig) *Intersection {
	t.Helper()
	w, err := BuildIntersection(seed, shards, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestIntersectionPhysicalLightNoConflicts(t *testing.T) {
	w := runIntersection(t, 10, 1, DefaultIntersectionConfig())
	if err := w.Run(3 * sim.Minute); err != nil {
		t.Fatal(err)
	}
	if w.Conflicts != 0 {
		t.Fatalf("%d conflicts under a working light", w.Conflicts)
	}
	total := w.Crossed[RoadNS] + w.Crossed[RoadEW]
	if total < 20 {
		t.Fatalf("only %d vehicles crossed in 3 minutes", total)
	}
}

func TestIntersectionVirtualTakeoverKeepsTrafficMoving(t *testing.T) {
	cfg := DefaultIntersectionConfig()
	cfg.LightFailsAt = 60 * sim.Second
	w := runIntersection(t, 11, 1, cfg)
	if err := w.Run(60 * sim.Second); err != nil {
		t.Fatal(err)
	}
	before := w.Crossed[RoadNS] + w.Crossed[RoadEW]
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
	if w.LightAlive() {
		t.Fatal("light should be dead")
	}
}

func TestIntersectionNoBackupStallsSafely(t *testing.T) {
	cfg := DefaultIntersectionConfig()
	cfg.LightFailsAt = 30 * sim.Second
	cfg.VirtualBackup = false
	w := runIntersection(t, 12, 1, cfg)
	if err := w.Run(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(30 * sim.Second); err != nil { // drain guard + in-flight crossings
		t.Fatal(err)
	}
	before := w.Crossed[RoadNS] + w.Crossed[RoadEW]
	if err := w.Run(2 * sim.Minute); err != nil {
		t.Fatal(err)
	}
	after := w.Crossed[RoadNS] + w.Crossed[RoadEW]
	if w.Conflicts != 0 {
		t.Fatalf("%d conflicts with a dead light and no backup", w.Conflicts)
	}
	if after != before {
		t.Fatalf("%d vehicles crossed with no control authority (fail-safe violated)",
			after-before)
	}
}

func TestIntersectionJamDuringVirtualOperation(t *testing.T) {
	// After the physical light dies and the virtual light has taken over,
	// jam the V2V channel: the virtual node goes silent, every approaching
	// car must treat the crossing as red (no conflicts), and traffic must
	// resume once the jam clears.
	cfg := DefaultIntersectionConfig()
	cfg.LightFailsAt = 30 * sim.Second
	w := runIntersection(t, 14, 1, cfg)
	if err := w.Run(90 * sim.Second); err != nil { // virtual light established
		t.Fatal(err)
	}
	w.JamV2V(20 * sim.Second)
	if err := w.Run(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if w.Conflicts != 0 {
		t.Fatalf("%d conflicts across a V2V jam on the virtual light", w.Conflicts)
	}
	before := w.Crossed[RoadNS] + w.Crossed[RoadEW]
	if err := w.Run(2 * sim.Minute); err != nil { // jam long gone: traffic must flow again
		t.Fatal(err)
	}
	after := w.Crossed[RoadNS] + w.Crossed[RoadEW]
	if after-before < 5 {
		t.Fatalf("traffic did not resume after jam: %d crossed", after-before)
	}
	if w.Conflicts != 0 {
		t.Fatalf("%d conflicts after recovery", w.Conflicts)
	}
}

// intersectionFingerprint serializes everything observable about a run.
func intersectionFingerprint(t *testing.T, seed int64, shards int, cfg IntersectionConfig, d sim.Time) string {
	t.Helper()
	w, err := BuildIntersection(seed, shards, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(d); err != nil {
		t.Fatal(err)
	}
	var state []string
	for _, c := range w.cars {
		state = append(state, fmt.Sprintf("%d:%s:%.6f:%.6f:%v:%v",
			c.id, c.road, c.body.X, c.body.Speed, c.done, c.waited))
	}
	js, err := json.Marshal(map[string]any{
		"crossed_ns": w.Crossed[RoadNS],
		"crossed_ew": w.Crossed[RoadEW],
		"conflicts":  w.Conflicts,
		"wait_p95":   w.WaitTimes.Percentile(95),
		"active":     w.ActiveCars(),
		"cars":       state,
		"events":     w.Kernel().Executed(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(js)
}

// The intersection must be byte-identical across shard widths too — with
// the light failure deliberately straddling a window barrier (mid-window
// instant), the exact case where a sloppy port would let the failure land
// on different edges for different widths.
func TestIntersectionShardCountInvariance(t *testing.T) {
	cfg := DefaultIntersectionConfig()
	cfg.LightFailsAt = 30*sim.Second + 37*sim.Millisecond // straddles a window barrier
	dur := 80 * sim.Second
	if testing.Short() {
		dur = 45 * sim.Second
	}
	base := intersectionFingerprint(t, 42, 1, cfg, dur)
	for _, shards := range []int{2, 4} {
		if got := intersectionFingerprint(t, 42, shards, cfg, dur); got != base {
			t.Fatalf("shards=%d changed output:\n1 shard: %s\n%d shards: %s", shards, base, shards, got)
		}
	}
	if other := intersectionFingerprint(t, 43, 2, cfg, dur); other == base {
		t.Fatal("different seeds produced identical output")
	}
}

// Two maneuvers granted at the same barrier (different regions, same
// target lane) must see each other: the first grant marks its dual-lane
// occupancy in the snapshot before the second's clearance check runs.
func TestArbitrateSameWindowGrantsSeeEachOther(t *testing.T) {
	cfg := DefaultHighwayConfig()
	cfg.Cars = 6
	cfg.Lanes = 3
	h := buildHighway(t, 17, 1, cfg)
	a, b := h.Cars()[0], h.Cars()[1]
	a.Body.X, a.Body.Lane, a.Body.Speed = 199, 0, 20
	b.Body.X, b.Body.Lane, b.Body.Speed = 205, 2, 20
	// Park the remaining cars far away in their own lanes.
	for i, c := range h.Cars()[2:] {
		c.Body.X = 1000 + 50*float64(i)
	}
	h.assignShards()
	h.publishSnapshot(0)
	a.wantRegion, a.wantLane = "lc@0", 1
	b.wantRegion, b.wantLane = "lc@1", 1
	h.arbitrate(0)
	if !a.maneuver.Active() || a.maneuver.TargetLane != 1 {
		t.Fatal("first grantee should begin its maneuver")
	}
	if b.maneuver.Active() {
		t.Fatal("second grantee began converging into the same spot: stale-snapshot clearance")
	}
	if b.heldRegion != "" {
		t.Fatalf("denied car still holds %q", b.heldRegion)
	}
}
