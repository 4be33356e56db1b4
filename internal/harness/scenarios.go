package harness

import (
	"context"
	"fmt"
	"os"
	"time"

	"karyon/internal/avionics"
	"karyon/internal/core"
	"karyon/internal/faultinject"
	"karyon/internal/metrics"
	"karyon/internal/sim"
	"karyon/internal/world"
)

// HighwayScenario runs the multi-car highway world under one LoS policy,
// optionally under a reproducible fault campaign — the CLI counterpart of
// the E2/E12 experiments, no registry needed. It implements Shardable:
// every replica runs on the partitioned engine (width 1 when unsharded),
// so the output is byte-identical for every -shards value.
type HighwayScenario struct {
	Duration time.Duration
	Cars     int
	// Mode is adaptive, fixed1, fixed2, fixed3, or reckless.
	Mode string
	// SensorFaultRate injects this many randomized sensor/disturbance/jam
	// campaign events per simulated minute (0 disables the campaign).
	SensorFaultRate float64
	// JamEvery/JamBurst jam the V2V channel for JamBurst every JamEvery
	// (both must be positive to take effect) — reproducible beacon-loss
	// bursts, the paper's inaccessibility periods.
	JamEvery time.Duration
	JamBurst time.Duration
	// Medium routes V2V through the slot-level sharded radio (airtime,
	// collisions, carrier sense, jam windows) instead of abstract loss
	// draws; Channels sets its orthogonal channel count.
	Medium   bool
	Channels int
	// TracePath writes a record/replay trace of the run (windows,
	// barrier decisions, digests, periodic checkpoints; see
	// internal/world record.go). Recording requires a single replica and
	// no fault campaign — the trace spec cannot reproduce campaign
	// injections. CheckpointEvery sets the checkpoint interval in
	// windows (0 = default 50); PerturbWindow > 0 forces car 0 to brake
	// at that window's barrier, the deliberate-divergence knob the
	// bisect tooling is tested with.
	TracePath       string
	CheckpointEvery int
	PerturbWindow   uint64
}

// Name implements Scenario.
func (s HighwayScenario) Name() string { return "highway" }

// Run implements Scenario: an unsharded replica is the sharded path at
// width 1, which keeps the two paths byte-identical by construction.
func (s HighwayScenario) Run(k *sim.Kernel) (*metrics.Result, error) {
	return s.RunSharded(context.Background(), k.Seed(), 1)
}

// RunSharded implements Shardable.
func (s HighwayScenario) RunSharded(ctx context.Context, seed int64, shards int) (*metrics.Result, error) {
	cfg := world.DefaultHighwayConfig()
	cfg.Cars = s.Cars
	cfg.Medium = s.Medium
	cfg.Channels = s.Channels
	cfg.CarrierSense = s.Medium // CSMA by default on the slot-level radio
	switch s.Mode {
	case "adaptive":
		cfg.Mode = world.ModeAdaptive
	case "fixed1", "fixed2", "fixed3":
		cfg.Mode = world.ModeFixed
		cfg.FixedLoS = core.LoS(s.Mode[len(s.Mode)-1] - '0')
	case "reckless":
		cfg.Mode = world.ModeReckless
		cfg.FixedLoS = 3
	default:
		return nil, fmt.Errorf("unknown mode %q", s.Mode)
	}
	h, err := world.BuildHighway(seed, shards, cfg)
	if err != nil {
		return nil, err
	}
	if err := h.Start(); err != nil {
		return nil, err
	}
	dur := sim.FromDuration(s.Duration)
	scheduleJams(h, s.JamEvery, s.JamBurst, dur)
	var finishTrace func() error
	if s.TracePath != "" {
		if s.SensorFaultRate > 0 {
			return nil, fmt.Errorf("harness: recording cannot reproduce a fault campaign; disable the fault rate")
		}
		spec := world.TraceSpec{
			Scenario: s.Name(), Seed: seed, Shards: shards, Duration: dur,
			Config: cfg, Jams: jamSpecs(s.JamEvery, s.JamBurst, dur),
			PerturbWindow: s.PerturbWindow,
		}
		if finishTrace, err = attachRecorder(h, s.TracePath, s.CheckpointEvery, spec); err != nil {
			return nil, err
		}
	}
	var rep *faultinject.Report
	if s.SensorFaultRate > 0 {
		events := int(s.SensorFaultRate*s.Duration.Minutes() + 0.5)
		campaign, err := faultinject.Generate(sim.NewStream(seed, 9001, 0).Rand, faultinject.GenerateConfig{
			Duration: dur,
			Warmup:   dur / 10,
			Events:   events,
			Targets:  cfg.Cars,
		})
		if err != nil {
			return nil, err
		}
		if rep, err = faultinject.RunOnHighway(ctx, h, campaign, dur); err != nil {
			return nil, err
		}
	} else if err := h.RunContext(ctx, dur); err != nil {
		return nil, err
	}
	if finishTrace != nil {
		if err := finishTrace(); err != nil {
			return nil, err
		}
	}
	res := metrics.NewResult(fmt.Sprintf("highway: %d cars, %s simulated", cfg.Cars, s.Duration))
	levels := map[core.LoS]int{}
	for _, c := range h.Cars() {
		levels[c.LoS()]++
	}
	rec := res.Record("mode", s.Mode).
		Int("events", int64(h.Kernel().Executed())).
		Val("mean speed m/s", h.MeanSpeed(), metrics.F2).
		Val("flow veh/h", h.Flow(), metrics.F2).
		Val("min timegap s", h.TimeGaps.Min(), metrics.F2).
		Val("p5 timegap s", h.TimeGaps.Percentile(5), metrics.F2).
		Int("collisions", h.Collisions).
		Int("final LoS1", int64(levels[1])).
		Int("final LoS2", int64(levels[2])).
		Int("final LoS3", int64(levels[3]))
	if rep != nil {
		var injected int64
		for _, n := range rep.Injected {
			injected += int64(n)
		}
		rec.Int("faults injected", injected).
			Val("fault coverage", rep.Coverage(), metrics.Pct).
			Val("det.p95 ms", rep.DetectionLatencies.Percentile(95), metrics.F2)
	}
	if s.Medium {
		recordMediumStats(rec, h)
	}
	return res, nil
}

// jammable is a world that accepts barrier-scheduled V2V jam bursts.
type jammable interface {
	Schedule(at sim.Time, fn func())
	JamV2V(d sim.Time)
}

// scheduleJams schedules a JamV2V burst every jamEvery until dur. Both
// knobs must be positive *after* conversion to virtual time: a
// sub-microsecond period truncates to zero and would otherwise loop
// forever without advancing. The schedule is derived through jamSpecs so
// a recorded trace's jam list is, by construction, exactly what the run
// executed.
func scheduleJams(w jammable, jamEvery, jamBurst time.Duration, dur sim.Time) {
	for _, j := range jamSpecs(jamEvery, jamBurst, dur) {
		burst := j.Burst
		w.Schedule(j.At, func() { w.JamV2V(burst) })
	}
}

// jamSpecs materializes the periodic jam schedule as the concrete burst
// list that rides a trace header.
func jamSpecs(jamEvery, jamBurst time.Duration, dur sim.Time) []world.JamSpec {
	every, burst := sim.FromDuration(jamEvery), sim.FromDuration(jamBurst)
	if every <= 0 || burst <= 0 {
		return nil
	}
	var out []world.JamSpec
	for t := every; t < dur; t += every {
		out = append(out, world.JamSpec{At: t, Burst: burst})
	}
	return out
}

// attachRecorder opens the trace file and attaches a recorder to the
// world; the returned finish closes the trace (end marker + flush) and
// the file. Call it exactly once after the run.
func attachRecorder(h *world.Highway, path string, every int, spec world.TraceSpec) (finish func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("harness: creating trace %s: %w", path, err)
	}
	if every <= 0 {
		every = 50
	}
	if err := h.RecordTo(f, spec, every); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		ferr := h.FinishRecording()
		if cerr := f.Close(); ferr == nil {
			ferr = cerr
		}
		return ferr
	}, nil
}

// recordMediumStats appends the slot-level radio's accounting to a world
// record: delivery ratio, contention outcomes, and the observed
// inaccessibility durations.
func recordMediumStats(rec *metrics.Record, h *world.Highway) {
	st := h.MediumStats()
	inacc := h.Inaccessibility()
	rec.Val("delivery ratio", st.DeliveryRatio(), metrics.Pct).
		Int("radio collisions", st.Collisions).
		Int("radio deferred", st.Deferred).
		Int("radio retried", st.Retries).
		Int("radio jammed", st.Jammed).
		Val("inacc p95 ms", inacc.Percentile(95), metrics.F2).
		Val("inacc max ms", inacc.Max(), metrics.F2)
}

// MegaHighwayScenario runs the large-world highway: the same full-stack
// engine as HighwayScenario, sized so that one core cannot hold it — the
// reason the harness grew a shards dimension. The output is byte-identical
// for every shard count.
type MegaHighwayScenario struct {
	Duration time.Duration
	Cars     int
	// Length is the ring circumference in meters (0 = default 10 km).
	Length float64
	// Loss is the per-beacon loss probability, used verbatim — unlike
	// Cars/Length, zero means a genuinely lossless channel, not "use the
	// config default" (the CLI flag supplies the 5% default, and a
	// lossless run must remain expressible).
	Loss float64
	// V2VRange is the beacon reach in meters (0 = default 300). It bounds
	// the widest partition: each ring arc must be at least this long, so a
	// 300 km ring at 250 m reach admits 1200 shards.
	V2VRange float64
	// Medium routes V2V through the slot-level sharded radio; Channels
	// sets its orthogonal channel count.
	Medium   bool
	Channels int
	// JamEvery/JamBurst add periodic V2V inaccessibility bursts (both
	// must be positive to take effect).
	JamEvery time.Duration
	JamBurst time.Duration
	// TracePath/CheckpointEvery/PerturbWindow mirror
	// HighwayScenario's recording knobs.
	TracePath       string
	CheckpointEvery int
	PerturbWindow   uint64
}

// Name implements Scenario.
func (s MegaHighwayScenario) Name() string { return "megahighway" }

// Run implements Scenario.
func (s MegaHighwayScenario) Run(k *sim.Kernel) (*metrics.Result, error) {
	return s.RunSharded(context.Background(), k.Seed(), 1)
}

// RunSharded implements Shardable.
func (s MegaHighwayScenario) RunSharded(ctx context.Context, seed int64, shards int) (*metrics.Result, error) {
	cfg := world.DefaultHighwayConfig()
	cfg.Length = 10000
	cfg.Cars = 200
	cfg.V2VRange = 300
	if s.Cars > 0 {
		cfg.Cars = s.Cars
	}
	if s.Length > 0 {
		cfg.Length = s.Length
	}
	if s.V2VRange > 0 {
		cfg.V2VRange = s.V2VRange
	}
	cfg.Loss = s.Loss
	cfg.Medium = s.Medium
	cfg.Channels = s.Channels
	cfg.CarrierSense = s.Medium
	h, err := world.BuildHighway(seed, shards, cfg)
	if err != nil {
		return nil, err
	}
	if err := h.Start(); err != nil {
		return nil, err
	}
	dur := sim.FromDuration(s.Duration)
	scheduleJams(h, s.JamEvery, s.JamBurst, dur)
	var finishTrace func() error
	if s.TracePath != "" {
		spec := world.TraceSpec{
			Scenario: s.Name(), Seed: seed, Shards: shards, Duration: dur,
			Config: cfg, Jams: jamSpecs(s.JamEvery, s.JamBurst, dur),
			PerturbWindow: s.PerturbWindow,
		}
		if finishTrace, err = attachRecorder(h, s.TracePath, s.CheckpointEvery, spec); err != nil {
			return nil, err
		}
	}
	if err := h.RunContext(ctx, dur); err != nil {
		return nil, err
	}
	if finishTrace != nil {
		if err := finishTrace(); err != nil {
			return nil, err
		}
	}
	sent, delivered, lost := h.BeaconStats()
	var ebrakes int64
	for _, c := range h.Cars() {
		ebrakes += c.EmergencyBrakes
	}
	res := metrics.NewResult(fmt.Sprintf("megahighway: %d cars on a %.0f m ring", cfg.Cars, cfg.Length))
	rec := res.Record().
		Val("mean speed m/s", h.MeanSpeed(), metrics.F2).
		Val("flow veh/h", h.Flow(), metrics.F2).
		Val("min timegap s", h.TimeGaps.Min(), metrics.F2).
		Val("p5 timegap s", h.TimeGaps.Percentile(5), metrics.F2).
		Int("collisions", h.Collisions).
		Int("emergency brakes", ebrakes).
		Int("beacons sent", sent).
		Int("beacons delivered", delivered).
		Int("beacons lost", lost).
		Int("events", int64(h.Kernel().Executed()))
	if s.Medium {
		recordMediumStats(rec, h)
	}
	return res, nil
}

// IntersectionScenario runs the traffic-light intersection, optionally
// failing the physical light (the light-failure-time knob) and engaging
// the virtual backup. Shardable: quadrants map onto shard kernels.
type IntersectionScenario struct {
	Duration      time.Duration
	FailAt        time.Duration
	VirtualBackup bool
	// Medium routes the light's I-am-alive beacons through the slot-level
	// sharded radio; Channels sets its channel count.
	Medium   bool
	Channels int
	// JamEvery/JamBurst add periodic V2V inaccessibility bursts (both
	// must be positive to take effect).
	JamEvery time.Duration
	JamBurst time.Duration
}

// Name implements Scenario.
func (s IntersectionScenario) Name() string { return "intersection" }

// Run implements Scenario.
func (s IntersectionScenario) Run(k *sim.Kernel) (*metrics.Result, error) {
	return s.RunSharded(context.Background(), k.Seed(), 1)
}

// RunSharded implements Shardable.
func (s IntersectionScenario) RunSharded(ctx context.Context, seed int64, shards int) (*metrics.Result, error) {
	cfg := world.DefaultIntersectionConfig()
	cfg.LightFailsAt = sim.FromDuration(s.FailAt)
	cfg.VirtualBackup = s.VirtualBackup
	cfg.Medium = s.Medium
	cfg.Channels = s.Channels
	w, err := world.BuildIntersection(seed, shards, cfg)
	if err != nil {
		return nil, err
	}
	if err := w.Start(); err != nil {
		return nil, err
	}
	dur := sim.FromDuration(s.Duration)
	scheduleJams(w, s.JamEvery, s.JamBurst, dur)
	if err := w.RunContext(ctx, dur); err != nil {
		return nil, err
	}
	res := metrics.NewResult(fmt.Sprintf("intersection: %s simulated", s.Duration))
	res.Record().
		Bool("light alive", w.LightAlive()).
		Int("crossed NS", w.Crossed[world.RoadNS]).
		Int("crossed EW", w.Crossed[world.RoadEW]).
		Val("wait p95 s", w.WaitTimes.Percentile(95), metrics.F2).
		Int("conflicts", w.Conflicts).
		Int("events", int64(w.Kernel().Executed()))
	w.Stop()
	return res, nil
}

// EncounterScenario runs one two-aircraft avionic encounter geometry.
type EncounterScenario struct {
	// Geometry is same-direction, leveled-crossing, or level-change.
	Geometry string
	// Collaborative selects ADS-B traffic; false means voice-only.
	Collaborative bool
}

// Name implements Scenario.
func (s EncounterScenario) Name() string { return "encounter" }

// Run implements Scenario.
func (s EncounterScenario) Run(k *sim.Kernel) (*metrics.Result, error) {
	var geom avionics.Scenario
	for _, cand := range avionics.Scenarios() {
		if cand.String() == s.Geometry {
			geom = cand
		}
	}
	if geom == 0 {
		return nil, fmt.Errorf("unknown geometry %q", s.Geometry)
	}
	e, err := avionics.NewEncounter(k, avionics.DefaultEncounterConfig(geom, s.Collaborative))
	if err != nil {
		return nil, err
	}
	enc, err := e.Run()
	if err != nil {
		return nil, err
	}
	traffic := "voice"
	if s.Collaborative {
		traffic = "ADS-B"
	}
	res := metrics.NewResult(fmt.Sprintf("encounter %s (collaborative=%v)", s.Geometry, s.Collaborative))
	res.Record("geometry", s.Geometry, "traffic", traffic).
		Int("violations ticks", enc.ViolationTicks).
		Val("min lateral m", enc.MinLateral, metrics.F2).
		Val("min vertical m", enc.MinVertical, metrics.F2).
		Bool("maneuvered", enc.Maneuvered).
		Int("LoS at end", int64(enc.LoSAtEnd)).
		Val("LoS3 time", enc.TimeAtLoS3Frac, metrics.Pct)
	return res, nil
}
