package world

import (
	"math"
	"strconv"

	"karyon/internal/coord"
	"karyon/internal/core"
	"karyon/internal/gear"
	"karyon/internal/sensor"
	"karyon/internal/sim"
	"karyon/internal/vehicle"
	"karyon/internal/wireless"
)

// Car is one vehicle with its full KARYON stack, packaged as a shard-safe
// component: every piece of mutable state in it is touched either by the
// car's own control step (once per window, by the step loop of whichever
// shard currently owns the car) or at the single-threaded window barrier
// — never by another car's step. The car reads the world only through
// the immutable neighbor snapshot published at the last window edge, and
// leaves all cross-car traffic (V2V beacons) in its own pending beacon for
// the barrier to deliver. That discipline is what lets the same car
// implementation run unchanged on 1 or N shards with byte-identical
// output.
type Car struct {
	ID   int
	Body vehicle.Body

	// clock travels with the car across shard handoffs: the car's step
	// sets it to the shard's clock first, so the stack's components
	// (sensors, state table, safety manager) always read a consistent now.
	clock *sim.ManualClock
	// rx drives beacon-loss draws; consumed in deterministic per-receiver
	// frame order (see sendBeacon for the exact discipline).
	rx *sim.Stream
	// tx drives Medium-mode slot jitter: one draw per beacon, consumed by
	// the car's own step, so the slot is independent of shard layout.
	tx *sim.Stream
	// sensorRx holds the three transducers' noise streams; the Physical
	// sensors consume them, the car keeps the handles so record/replay
	// checkpoints ((*Car).state) can capture and restore the generator
	// states.
	sensorRx [3]*sim.Stream

	// dist is the abstract *reliable* distance sensor: three redundant
	// transducers fused (Marzullo, f=1). Component redundancy is what
	// masks a permanent offset on one transducer — a fault no single
	// abstract sensor can detect (Sec. IV-B). Each transducer samples
	// truthGap, which the control step publishes from the snapshot before
	// reading.
	dist     *sensor.Reliable
	inputs   []*sensor.Abstract
	truthGap float64

	// table holds the neighbours' last beaconed states and accelerations
	// (written by the barrier's delivery stage on the shard that owns the
	// car, read by the car's own steps).
	table *coord.StateTable
	// inbox batches the beacons the delivery stage hands the car until
	// its shard merges them into table; empty outside the stage.
	inbox   []coord.Heard
	manager *core.Manager
	fn      *core.Functionality
	gate    *core.Gate
	params  vehicle.ACCParams

	// est tracks the lead vehicle through the physical channel (GEAR's
	// actuation-perception loop): lead speed below LoS3, and a hidden-
	// channel cross-check of V2V claims at LoS3.
	est    *gear.LeadEstimator
	hidden *gear.HiddenChannel

	// forcedBrakeUntil implements an external hazard (campaign
	// disturbance): the driver/plant brakes hard until this instant.
	// Written only at barriers or between runs.
	forcedBrakeUntil sim.Time

	// Lane-change machinery (multi-lane highways only). The car records
	// reservation intents in its own fields; the world converts them into
	// coord.Reservations traffic at the barrier, in car-id order.
	maneuver    vehicle.Maneuver
	wantRegion  coord.Resource
	wantLane    int
	heldRegion  coord.Resource
	releaseHeld bool
	nextAttempt sim.Time

	// shard is the owning partition; phase offsets the control step inside
	// a window. rank is the car's step rank: its position in the world's
	// ascending (phase, id) order, which is the order every shard steps
	// its cars in.
	shard int
	phase sim.Time
	rank  int

	// pend is the car's pending beacon, and pendTx the frame that carries
	// it in Medium mode (its payload points at pend). The car's step
	// writes them and lists the car as a sender of the window (sendBeacon),
	// so the steady-state beacon path allocates nothing. They are stable
	// between the send and the closing barrier: a car steps exactly once
	// per window, and the delivery stage runs before the next window opens.
	pend   beacon
	pendTx wireless.ShardedTx

	// LaneChanges counts completed maneuvers.
	LaneChanges int64
	// EmergencyBrakes counts emergency interventions.
	EmergencyBrakes int64
	// DegradedTicks counts control cycles spent in the blind fallback.
	DegradedTicks int64
	beaconsSent   int64
}

// LoS returns the car's current level of service.
func (c *Car) LoS() core.LoS { return c.fn.Current() }

// DistanceSensor exposes the first redundant transducer — the campaign's
// default injection point.
func (c *Car) DistanceSensor() *sensor.Abstract { return c.inputs[0] }

// SensorInputs exposes all redundant transducers (multi-fault campaigns).
func (c *Car) SensorInputs() []*sensor.Abstract { return c.inputs }

// FusedSensor exposes the reliable (fused) distance sensor.
func (c *Car) FusedSensor() *sensor.Reliable { return c.dist }

// Manager exposes the car's safety kernel.
func (c *Car) Manager() *core.Manager { return c.manager }

// Gate exposes the car's actuation gate.
func (c *Car) Gate() *core.Gate { return c.gate }

// ForceBrake makes the car brake hard for d (an external hazard, e.g. an
// obstacle on the road — the campaign's disturbance event). Call it at a
// window barrier (Highway.Schedule) or while the world is not running.
func (c *Car) ForceBrake(now sim.Time, d sim.Time) {
	c.forcedBrakeUntil = now + d
}

// SetCruiseSpeed changes the car's free-flow set speed (heterogeneous
// traffic in experiments: a slow truck among cars).
func (c *Car) SetCruiseSpeed(v float64) {
	if v > 0 {
		c.params.CruiseSpeed = v
	}
}

// carDesign is the design-time half of every car in a world: built once
// by NewHighway and read, never written, by all of its cars on every
// shard. It holds the safety kernel's design and the keys of the two
// indicators a car's step sets, the transducers' detectors (pure
// configuration, so three transducers of five thousand cars share four
// values), and the lane-change region names, so the step path formats no
// string.
type carDesign struct {
	kernel    *core.Design
	validity  core.Key
	v2vLead   core.Key
	detectors []sensor.Detector
	// regions[k] is the name of lane-change region k, "lc@<k>".
	regions []coord.Resource
}

// newCarDesign builds the design every car of a world with cfg shares:
// the LoS ladder 1..3 with the paper's rule structure, the envelopes
// certified per level, the transducers' detectors, and the names of the
// ring's 200 m lane-change regions.
func newCarDesign(cfg HighwayConfig) (*carDesign, error) {
	k, err := core.NewDesign("cruise", 3)
	if err != nil {
		return nil, err
	}
	for _, r := range []struct {
		level core.LoS
		rule  core.Rule
	}{
		{2, core.MinValidity("dist.validity", 0.7)},
		{3, core.FlagSet("v2v.lead")},
		{3, core.MaxAge("v2v.lead", 400*sim.Millisecond)},
	} {
		if err := k.AddRule(r.level, r.rule); err != nil {
			return nil, err
		}
	}
	if err := k.SetEnvelopes(map[core.LoS]core.Envelope{
		1: core.NewEnvelope().Bound("accel", -6, 1.0),
		2: core.NewEnvelope().Bound("accel", -6, 1.5),
		3: core.NewEnvelope().Bound("accel", -6, 2.5),
	}); err != nil {
		return nil, err
	}
	regions := make([]coord.Resource, max(int(cfg.Length/200), 1))
	for i := range regions {
		regions[i] = coord.Resource("lc@" + strconv.Itoa(i))
	}
	return &carDesign{
		kernel:   k,
		validity: k.Key("dist.validity"),
		v2vLead:  k.Key("v2v.lead"),
		detectors: []sensor.Detector{
			sensor.RangeDetector{Min: -10, Max: cfg.Length},
			sensor.FreshnessDetector{MaxAge: 3 * cfg.ControlPeriod},
			sensor.StuckDetector{MinRepeats: 4},
			sensor.NoiseDetector{Sigma: cfg.SensorSigma, Tolerance: 5, MinWindow: 8},
		},
		regions: regions,
	}, nil
}

// carPhase is the offset of car id's control step inside every window.
func carPhase(seed int64, id int, cfg HighwayConfig) sim.Time {
	return 1 + sim.Time(uint64(sim.SplitSeed(seed, int64(id)*64+4))%uint64(cfg.ControlPeriod-1))
}

// newCar assembles the car's run-time stack over the world's design.
// Every random stream the car consumes is a sim.NewStream entity stream,
// so neither the shard assignment nor other cars' event interleaving can
// perturb it.
func newCar(seed int64, id int, x float64, cfg HighwayConfig, d *carDesign) (*Car, error) {
	c := &Car{
		ID:       id,
		Body:     vehicle.Body{X: x, Speed: 20, Length: 4.5},
		clock:    &sim.ManualClock{},
		rx:       sim.NewStream(seed, int64(id), 3),
		tx:       sim.NewStream(seed, int64(id), 5),
		params:   vehicle.DefaultACCParams(),
		est:      gear.NewLeadEstimator(),
		truthGap: cfg.Length,
		phase:    carPhase(seed, id, cfg),
		inputs:   make([]*sensor.Abstract, 3),
	}
	c.hidden = gear.NewHiddenChannel(c.est, 1.5)
	truth := func(sim.Time) float64 { return c.truthGap }
	// The three transducer names, "dist-<id>-<s>", are equally long
	// thirds of one string.
	var buf [3 * 24]byte
	name := buf[:0]
	for s := range c.inputs {
		name = append(strconv.AppendInt(append(name, "dist-"...), int64(id), 10), '-', byte('0'+s))
	}
	names, n := string(name), len(name)/len(c.inputs)
	for s := range c.inputs {
		c.sensorRx[s] = sim.NewStream(seed, int64(id), int64(s))
		phys := sensor.NewPhysicalDetached(c.clock, names[s*n:(s+1)*n], truth,
			cfg.SensorSigma, c.sensorRx[s].Rand)
		fm := sensor.NewFaultManagement(16, d.detectors...)
		c.inputs[s] = sensor.NewAbstract(c.clock, phys, fm)
	}
	c.dist = sensor.NewReliable(c.clock, c.inputs, 4*cfg.SensorSigma+1, 1, 0.3)

	// Cooperative state table fed by V2V beacons delivered at barriers.
	c.table = coord.NewStateTable(c.clock, 500*sim.Millisecond)

	// Safety kernel over the shared design. The manager is detached
	// (clock, not kernel): the control step drives one evaluation cycle
	// per period, so the cycle travels with the car.
	mgr, gate, err := d.kernel.Build(c.clock, core.ManagerConfig{
		Period:           cfg.ControlPeriod,
		UpgradeStability: 5,
	})
	if err != nil {
		return nil, err
	}
	c.manager = mgr
	c.fn = mgr.FunctionalityList()[0]
	c.gate = gate
	return c, nil
}

// occupies reports whether the car currently occupies the lane: its body
// lane, plus the maneuver's target lane while a change is in progress
// (conservatively, a lane-changing car blocks both lanes).
func (c *Car) occupies(lane int) bool {
	if c.Body.Lane == lane {
		return true
	}
	return c.maneuver.Active() && c.maneuver.TargetLane == lane
}

// step runs one full perceive-assess-decide-actuate cycle. It executes on
// the owning shard during a window: it reads the immutable snapshot
// (through the highway's lookup helpers) and mutates only this car.
func (c *Car) step(h *Highway, shard *sim.Shard) {
	now := shard.Now()
	c.clock.Set(now)
	dt := h.cfg.ControlPeriod.Seconds()

	// 1. Perceive: publish the snapshot gap as the transducers' ground
	// truth, then read the validity-annotated fused distance.
	lead, gap := h.leaderFor(c, now)
	if lead != nil {
		c.truthGap = gap
	} else {
		c.truthGap = h.cfg.Length
	}
	reading := c.dist.Read()

	// 2. Feed the Run-Time Safety Information.
	ri := c.manager.Runtime()
	ri.SetKey(h.design.validity, reading.Validity)
	var leadState coord.CoopState
	haveV2V := false
	leadID := -1
	if lead != nil {
		leadID = lead.id
		if s, ok := c.table.Get(wireless.NodeID(lead.id)); ok && s.Validity >= 0.5 {
			leadState = s
			haveV2V = true
		}
	}
	if haveV2V {
		ri.SetKey(h.design.v2vLead, 1)
	}
	switch h.cfg.Mode {
	case ModeFixed, ModeReckless:
		// The manager does not run; pin the level.
		c.fn.Force(now, h.cfg.FixedLoS)
	case ModeAdaptive:
		c.manager.Cycle()
	}

	// 3. Decide: LoS-dependent time gap.
	level := c.fn.Current()
	c.params.TimeGap = vehicle.TimeGapForLoS(level)

	view := vehicle.NoLead()
	usable := reading.Validity >= 0.3 || h.cfg.Mode == ModeReckless
	if usable {
		g := reading.Value
		// Track the lead through the physical channel (GEAR): the
		// estimator supplies lead speed below LoS3 and the hidden-channel
		// cross-check of V2V claims at LoS3.
		c.est.Update(gear.Observation{
			At:       now,
			Gap:      g,
			OwnSpeed: c.Body.Speed,
			Validity: reading.Validity,
		})
		leadSpeed := c.Body.Speed
		if s, ok := c.est.LeadSpeed(); ok {
			leadSpeed = s
		}
		view = vehicle.LeadView{
			Present:  true,
			Gap:      g,
			Speed:    leadSpeed,
			Accel:    math.NaN(),
			Validity: reading.Validity,
		}
		if level >= 3 && haveV2V {
			view.Speed = leadState.Speed
			if b, ok := c.table.Accel(wireless.NodeID(leadID)); ok {
				// The hidden channel assesses the claim: a remote claim
				// physically inconsistent with the observed motion is not
				// trusted for feed-forward.
				if consistency, checked := c.hidden.AssessClaim(b); !checked || consistency >= 0.5 {
					view.Accel = b
				}
			}
		}
	} else {
		// Perception outage: the estimator's state is stale.
		c.est.Reset()
	}

	// 4. Actuate through the gate.
	var cmd float64
	switch {
	case now < c.forcedBrakeUntil:
		// External hazard: the plant brakes regardless of the controller.
		cmd = -5
	case !usable:
		// Blind: no trustworthy perception at any level. Brake hard to a
		// stop — a vehicle that cannot see must reach the unconditional
		// safe state before whatever it cannot see reaches it.
		c.DegradedTicks++
		cmd = -c.params.MaxBrake
	case vehicle.EmergencyBrakeNeeded(c.params, c.Body.Speed, view, 1.5):
		c.EmergencyBrakes++
		cmd = -c.params.MaxBrake
	default:
		cmd = vehicle.ACCAccel(c.params, c.Body.Speed, view)
	}
	if h.cfg.Mode != ModeReckless {
		cmd, _ = c.gate.Filter("accel", cmd)
	}
	c.Body.Accel = cmd

	// 5. Lane changes (multi-lane highways): decide, and advance any
	// maneuver in progress.
	if h.cfg.Lanes > 1 && h.cfg.Mode != ModeReckless && usable {
		c.maybeLaneChange(h, view, level, now)
	}
	if c.maneuver.Active() {
		if c.maneuver.Step(&c.Body, dt) {
			c.LaneChanges++
			c.releaseHeld = true
			// The leader changed with the lane: stale estimator state
			// would poison the first post-change samples.
			c.est.Reset()
		}
	}

	// 6. Integrate plant, wrap ring. The hot-state mirror republishes the
	// kinematics for the shard phase's cache-linear snapshot refresh.
	c.Body.Step(dt)
	if c.Body.X >= h.cfg.Length {
		c.Body.X -= h.cfg.Length
	}
	h.syncHot(c)

	// 7. Broadcast the cooperative state: delivery lands exactly at the
	// closing window edge, the conservative lookahead that lets shards run
	// a whole window apart.
	if h.beaconDue(c, now) {
		h.sendBeacon(shard, c, now)
	}
}

// maybeLaneChange runs the overtaking decision: a slow leader ahead, a
// clear target lane, the cooperation level to coordinate, and a region
// reservation requested from the barrier arbiter.
func (c *Car) maybeLaneChange(h *Highway, view vehicle.LeadView, level core.LoS, now sim.Time) {
	if c.maneuver.Active() || c.wantRegion != "" || c.heldRegion != "" ||
		now < c.nextAttempt || level < 2 {
		return
	}
	if !view.Present || view.Gap > c.params.DesiredGap(c.Body.Speed)*1.5 {
		return
	}
	if view.Speed > c.params.CruiseSpeed-3 {
		return // leader nearly at cruise: not worth overtaking
	}
	target := c.Body.Lane + 1
	if target >= h.cfg.Lanes {
		target = c.Body.Lane - 1
	}
	if target < 0 || target == c.Body.Lane || !h.laneClearFor(c, target) {
		c.nextAttempt = now + 2*sim.Second
		return
	}
	c.nextAttempt = now + 4*sim.Second
	regions := h.design.regions
	c.wantRegion = regions[int(c.Body.X/200)%len(regions)]
	c.wantLane = target
}
