package world

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"karyon/internal/coord"
	"karyon/internal/core"
	"karyon/internal/gear"
	"karyon/internal/sensor"
	"karyon/internal/sim"
	"karyon/internal/trace"
	"karyon/internal/vehicle"
	"karyon/internal/wireless"
)

// This file is the recording half of the record/replay layer: a trace
// writer fed from the window barrier, a width-invariant state digest,
// decision capture in the arbitration and handoff paths, and periodic
// full-state checkpoints (carCheckpoint / saveCar) so any window range
// can later be replayed without re-simulating from t=0.
//
// Determinism invariants the trace leans on:
//   - every window record is a pure function of (seed, config, window):
//     identical at every shard width;
//   - the digest covers only width-invariant state — the stitched
//     snapshot and the behavioral counters. Cross-shard handoff counts
//     (Crossers) vary with the partition layout, so they ride the record
//     as telemetry but stay out of the digest and out of equality;
//   - output-only accumulators (time-gap and inaccessibility histograms)
//     never feed back into behavior, so checkpoints skip them: a replay
//     reproduces window records, not end-of-run aggregate reports.

// TraceSpec is the JSON header blob: everything needed to rebuild the
// recorded world from scratch and re-apply its scheduled interventions.
type TraceSpec struct {
	Scenario string        `json:"scenario"`
	Seed     int64         `json:"seed"`
	Shards   int           `json:"shards"`
	Duration sim.Time      `json:"duration"`
	Config   HighwayConfig `json:"config"`
	Jams     []JamSpec     `json:"jams,omitempty"`
	// PerturbWindow > 0 forces car 0 to brake at that window's barrier —
	// the deliberate divergence knob karyon-bisect is tested against.
	PerturbWindow uint64 `json:"perturb_window,omitempty"`
}

// JamSpec is one scheduled V2V jam burst.
type JamSpec struct {
	At    sim.Time `json:"at"`
	Burst sim.Time `json:"burst"`
}

// recorder is attached to a Highway either to write a trace (w != nil)
// or to verify a replay against one (expect != nil). It hooks the
// per-window barrier path.
type recorder struct {
	w      *trace.Writer
	every  int // checkpoint interval in windows (0 = never)
	idx    uint64
	last   uint64 // last window digest, for the end marker
	err    error
	closed bool

	grants   []trace.Grant
	releases []trace.Release

	// expect holds the recorded windows during replay verification;
	// window i (1-based) lives at expect[i-1]. strict additionally
	// requires the width-dependent telemetry to match (same shard count
	// as the recording).
	expect []trace.WindowRecord
	strict bool

	// Checkpoint scratch, reused across checkpoints.
	enc     trace.Enc
	carEnc  trace.Enc
	ck      carCheckpoint
	mstate  *wireless.ShardedMediumState
	sortBuf []accelEntry
}

// RecordTo attaches a trace writer to the world. It must be called after
// Start and before any window has run; every subsequent window barrier
// appends one window record, plus a full state checkpoint every
// checkpointEvery windows. Call FinishRecording after the run.
func (h *Highway) RecordTo(w io.Writer, spec TraceSpec, checkpointEvery int) error {
	if h.rec != nil {
		return fmt.Errorf("world: recorder already attached")
	}
	if h.sk.Now() != 0 {
		return fmt.Errorf("world: RecordTo must be called before the first window (now=%v)", h.sk.Now())
	}
	if checkpointEvery < 0 {
		checkpointEvery = 0
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return fmt.Errorf("world: encoding trace spec: %w", err)
	}
	tw, err := trace.NewWriter(w, &trace.Header{
		Spec:            specJSON,
		Seed:            h.sk.Seed(),
		Shards:          h.sk.Shards(),
		Window:          int64(h.cfg.ControlPeriod),
		CheckpointEvery: checkpointEvery,
		Cars:            len(h.cars),
	})
	if err != nil {
		return err
	}
	h.rec = &recorder{w: tw, every: checkpointEvery}
	if spec.PerturbWindow > 0 {
		h.schedulePerturbation(spec.PerturbWindow)
	}
	return nil
}

// FinishRecording writes the end marker and flushes the trace. It
// returns the first error the recorder hit, including mid-run write
// failures that were deferred to keep the barrier path clean.
func (h *Highway) FinishRecording() error {
	r := h.rec
	if r == nil || r.w == nil {
		return fmt.Errorf("world: no recorder attached")
	}
	if r.closed {
		return r.err
	}
	r.closed = true
	if r.err == nil {
		r.err = r.w.Close(&trace.EndRecord{Windows: r.idx, Digest: r.last})
	}
	return r.err
}

// schedulePerturbation forces car 0 to brake hard for two seconds at the
// given window's barrier. Barrier actions must not touch kinematics, so
// the brake lands as a flag the next window's control steps read — the
// first divergent window of a perturbed run is therefore window+1, which
// is exactly what the bisect smoke test asserts.
func (h *Highway) schedulePerturbation(window uint64) {
	at := sim.Time(window) * h.cfg.ControlPeriod
	car := h.cars[0]
	h.Schedule(at, func() { car.ForceBrake(at, 2*sim.Second) })
}

// fnv1a64 folds one 64-bit word into an FNV-1a digest.
func fnv1a64(d, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		d ^= v & 0xFF
		d *= 1099511628211
		v >>= 8
	}
	return d
}

const fnvOffset64 = 14695981039346656037

// windowDigest hashes the width-invariant world state at a barrier: the
// stitched snapshot (position, speed, lanes per car in (x, id) order)
// and the cumulative behavioral counters. Anything that varies with the
// shard partition (ownership, handoff counts) stays out.
func (h *Highway) windowDigest() uint64 {
	d := uint64(fnvOffset64)
	for i := range h.snap {
		e := &h.snap[i]
		d = fnv1a64(d, uint64(e.id))
		d = fnv1a64(d, math.Float64bits(e.x))
		d = fnv1a64(d, math.Float64bits(e.speed))
		d = fnv1a64(d, uint64(int64(e.lane)))
		d = fnv1a64(d, uint64(int64(e.lane2)))
	}
	d = fnv1a64(d, uint64(h.Collisions))
	d = fnv1a64(d, uint64(h.beaconsDelivered))
	d = fnv1a64(d, uint64(h.beaconsLost))
	d = fnv1a64(d, math.Float64bits(h.speedSum))
	d = fnv1a64(d, uint64(h.speedN))
	return d
}

// captureGrant/captureRelease record arbitration decisions; called from
// arbitrate only when a recorder is attached.
func (h *Highway) captureGrant(c *Car, region coord.Resource) {
	h.rec.grants = append(h.rec.grants, trace.Grant{
		Car: int32(c.ID), Lane: int32(c.wantLane), Region: string(region),
	})
}

func (h *Highway) captureRelease(c *Car, region coord.Resource) {
	h.rec.releases = append(h.rec.releases, trace.Release{
		Car: int32(c.ID), Region: string(region),
	})
}

// recWindow runs at the very end of every window barrier. In record mode
// it appends the window record (and a periodic checkpoint); in verify
// mode it compares the recomputed record against the trace. Errors are
// sticky and surfaced by FinishRecording / the replay driver — the
// barrier itself never fails.
func (h *Highway) recWindow(edge sim.Time) {
	r := h.rec
	r.idx++
	wr := trace.WindowRecord{
		Index:      r.idx,
		Edge:       int64(edge),
		Digest:     h.windowDigest(),
		Collisions: h.Collisions,
		Delivered:  h.beaconsDelivered,
		Lost:       h.beaconsLost,
		Crossers:   h.Crossers,
		SpeedSum:   h.speedSum,
		SpeedN:     h.speedN,
		Grants:     r.grants,
		Releases:   r.releases,
	}
	r.last = wr.Digest
	switch {
	case r.w != nil:
		if r.err == nil {
			r.err = r.w.WriteWindow(&wr)
		}
		if r.err == nil && r.every > 0 && r.idx%uint64(r.every) == 0 {
			r.enc.Reset()
			h.encodeCheckpoint(&r.enc)
			r.err = r.w.WriteCheckpoint(&trace.CheckpointRecord{
				Index: r.idx, Edge: int64(edge), State: r.enc.Bytes(),
			})
		}
	case r.expect != nil:
		if r.err == nil {
			r.err = r.verifyWindow(&wr)
		}
	}
	r.grants = r.grants[:0]
	r.releases = r.releases[:0]
}

// verifyWindow checks one recomputed window against the recording.
func (r *recorder) verifyWindow(got *trace.WindowRecord) error {
	if got.Index > uint64(len(r.expect)) {
		return fmt.Errorf("world: replay ran past the recording (window %d of %d)", got.Index, len(r.expect))
	}
	want := &r.expect[got.Index-1]
	if !want.Same(got) {
		return &DivergenceError{Window: got.Index, Want: *want, Got: *got}
	}
	if r.strict && want.Crossers != got.Crossers {
		return &DivergenceError{Window: got.Index, Want: *want, Got: *got, TelemetryOnly: true}
	}
	return nil
}

// DivergenceError reports the first window where a replay's recomputed
// record differs from the recording. TelemetryOnly marks a mismatch
// confined to width-dependent telemetry under strict (same-width)
// verification.
type DivergenceError struct {
	Window        uint64
	Want, Got     trace.WindowRecord
	TelemetryOnly bool
}

func (e *DivergenceError) Error() string {
	kind := "state"
	if e.TelemetryOnly {
		kind = "telemetry"
	}
	return fmt.Sprintf("world: replay diverged from the recording at window %d (%s): digest %016x != %016x",
		e.Window, kind, e.Got.Digest, e.Want.Digest)
}

// encodeCheckpoint serializes the complete restorable world state: every
// car's stack (via saveCar), the behavioral counters, the reservation
// table, and the radio medium. The output-only histograms are
// deliberately absent — see the file comment.
func (h *Highway) encodeCheckpoint(e *trace.Enc) {
	r := h.rec
	e.U32(uint32(len(h.cars)))
	for _, c := range h.cars {
		saveCar(&r.ck, c)
		encodeCarCheckpoint(e, &r.ck, &r.sortBuf)
	}
	e.I64(h.Collisions)
	e.I64(h.Crossers)
	e.F64(h.speedSum)
	e.I64(h.speedN)
	e.I64(h.beaconsDelivered)
	e.I64(h.beaconsLost)
	e.I64(h.lastDelivered)
	e.Bool(h.inOutage)
	e.I64(int64(h.outageStart))
	e.I64(int64(h.jamStart))
	e.I64(int64(h.jamUntil))
	h.res.EncodeState(e)
	e.Bool(h.medium != nil)
	if h.medium != nil {
		r.mstate = h.medium.SaveState(r.mstate)
		r.mstate.EncodeState(e)
	}
}

// restoreCheckpoint rewinds a freshly built (and Started) world to a
// decoded checkpoint taken at edge: kernel warp, per-car restore, world
// counters, reservations, medium, then the same
// assignShards/publishSnapshot/seedWindow sequence Start uses so the
// next window opens exactly as it did in the recorded run. Scheduled
// actions at or before the checkpoint edge already happened inside it
// and are dropped.
func (h *Highway) restoreCheckpoint(state []byte, edge sim.Time) error {
	d := trace.NewDec(state)
	n := int(d.U32())
	if d.Err() == nil && n != len(h.cars) {
		return fmt.Errorf("world: checkpoint has %d cars, world has %d", n, len(h.cars))
	}
	if err := h.sk.Warp(edge); err != nil {
		return err
	}
	var ck carCheckpoint
	for _, c := range h.cars {
		if decodeCarCheckpoint(d, &ck); d.Err() != nil {
			return fmt.Errorf("world: decoding checkpoint: %w", d.Err())
		}
		restoreCar(&ck, c)
	}
	h.Collisions = d.I64()
	h.Crossers = d.I64()
	h.speedSum = d.F64()
	h.speedN = d.I64()
	h.beaconsDelivered = d.I64()
	h.beaconsLost = d.I64()
	h.lastDelivered = d.I64()
	h.inOutage = d.Bool()
	h.outageStart = sim.Time(d.I64())
	h.jamStart = sim.Time(d.I64())
	h.jamUntil = sim.Time(d.I64())
	h.res.DecodeState(d)
	hasMedium := d.Bool()
	if d.Err() != nil {
		return fmt.Errorf("world: decoding checkpoint: %w", d.Err())
	}
	if hasMedium != (h.medium != nil) {
		return fmt.Errorf("world: checkpoint medium presence (%v) does not match the world (%v)", hasMedium, h.medium != nil)
	}
	if h.medium != nil {
		// The checkpointed stream states cover only receivers that drew
		// randomness before the checkpoint; priming creates every
		// receiver's stream at its deterministic initial state first, so
		// the restore is exact for both populations.
		h.medium.Prime(0, wireless.NodeID(len(h.cars)-1))
		var ms wireless.ShardedMediumState
		ms.DecodeState(d)
		if d.Err() != nil {
			return fmt.Errorf("world: decoding checkpoint: %w", d.Err())
		}
		h.medium.RestoreState(&ms)
	}
	if d.Err() != nil {
		return fmt.Errorf("world: decoding checkpoint: %w", d.Err())
	}
	h.dropPendingThrough(edge)
	h.assignShards()
	h.publishSnapshot(edge)
	h.seedWindow(edge)
	return nil
}

// dropPendingThrough removes scheduled barrier actions that already ran
// inside the restored checkpoint (runPending executes at <= edge).
func (h *Highway) dropPendingThrough(edge sim.Time) {
	kept := h.pending[:0]
	for _, s := range h.pending {
		if s.at > edge {
			kept = append(kept, s)
		}
	}
	h.pending = kept
}

// carCheckpoint is one car's complete restorable state. Storage (the
// nested state objects) is reused across checkpoints.
type carCheckpoint struct {
	body     vehicle.Body
	clockAt  sim.Time
	rx, tx   uint64
	sensorRx [3]uint64
	phys     [3]sensor.PhysicalState
	fm       [3]*sensor.FaultManagementState
	dist     *sensor.ReliableState
	table    *coord.StateTableState
	mgr      *core.ManagerState
	gate     core.GateState
	est      gear.LeadEstimator
	hChecks  int64
	hDisagr  int64
	truthGap float64
	params   vehicle.ACCParams

	accelFrom []accelEntry

	forcedBrakeUntil sim.Time
	maneuver         vehicle.Maneuver
	wantRegion       coord.Resource
	wantLane         int
	heldRegion       coord.Resource
	releaseHeld      bool
	nextAttempt      sim.Time

	laneChanges     int64
	emergencyBrakes int64
	degradedTicks   int64
	beaconsSent     int64
}

type accelEntry struct {
	from  int
	accel float64
}

// saveCar checkpoints one car's complete stack state, reusing ck's
// nested storage.
func saveCar(ck *carCheckpoint, c *Car) {
	ck.body = c.Body
	ck.clockAt = c.clock.Now()
	ck.rx = c.rx.State()
	ck.tx = c.tx.State()
	for i, st := range c.sensorRx {
		ck.sensorRx[i] = st.State()
	}
	for i, in := range c.inputs {
		ck.phys[i] = in.Physical().SaveState()
		ck.fm[i] = in.FaultManagement().SaveState(ck.fm[i])
	}
	ck.dist = c.dist.SaveState(ck.dist)
	ck.table = c.table.SaveState(ck.table)
	ck.mgr = c.manager.SaveState(ck.mgr)
	ck.gate = c.gate.SaveState()
	ck.est = *c.est
	ck.hChecks = c.hidden.Checks
	ck.hDisagr = c.hidden.Disagreements
	ck.truthGap = c.truthGap
	ck.params = c.params
	ck.accelFrom = ck.accelFrom[:0]
	for from, a := range c.accelFrom {
		ck.accelFrom = append(ck.accelFrom, accelEntry{from: from, accel: a})
	}
	ck.forcedBrakeUntil = c.forcedBrakeUntil
	ck.maneuver = c.maneuver
	ck.wantRegion = c.wantRegion
	ck.wantLane = c.wantLane
	ck.heldRegion = c.heldRegion
	ck.releaseHeld = c.releaseHeld
	ck.nextAttempt = c.nextAttempt
	ck.laneChanges = c.LaneChanges
	ck.emergencyBrakes = c.EmergencyBrakes
	ck.degradedTicks = c.DegradedTicks
	ck.beaconsSent = c.beaconsSent
}

// restoreCar rewinds one car to its checkpoint.
func restoreCar(ck *carCheckpoint, c *Car) {
	c.Body = ck.body
	c.clock.Set(ck.clockAt)
	c.rx.Restore(ck.rx)
	c.tx.Restore(ck.tx)
	for i, st := range c.sensorRx {
		st.Restore(ck.sensorRx[i])
	}
	for i, in := range c.inputs {
		in.Physical().RestoreState(ck.phys[i])
		in.FaultManagement().RestoreState(ck.fm[i])
	}
	c.dist.RestoreState(ck.dist)
	c.table.RestoreState(ck.table)
	c.manager.RestoreState(ck.mgr)
	c.gate.RestoreState(ck.gate)
	*c.est = ck.est
	c.hidden.Checks = ck.hChecks
	c.hidden.Disagreements = ck.hDisagr
	c.truthGap = ck.truthGap
	c.params = ck.params
	clear(c.accelFrom)
	for _, e := range ck.accelFrom {
		c.accelFrom[e.from] = e.accel
	}
	c.forcedBrakeUntil = ck.forcedBrakeUntil
	c.maneuver = ck.maneuver
	c.wantRegion = ck.wantRegion
	c.wantLane = ck.wantLane
	c.heldRegion = ck.heldRegion
	c.releaseHeld = ck.releaseHeld
	c.nextAttempt = ck.nextAttempt
	c.LaneChanges = ck.laneChanges
	c.EmergencyBrakes = ck.emergencyBrakes
	c.DegradedTicks = ck.degradedTicks
	c.beaconsSent = ck.beaconsSent
}

// encodeCarCheckpoint writes one car's checkpoint in a fixed field
// order. The accel inbox comes out of a map, so it is sorted by sender.
func encodeCarCheckpoint(e *trace.Enc, ck *carCheckpoint, sortBuf *[]accelEntry) {
	e.F64(ck.body.X)
	e.I64(int64(ck.body.Lane))
	e.F64(ck.body.Speed)
	e.F64(ck.body.Accel)
	e.F64(ck.body.Length)
	e.I64(int64(ck.clockAt))
	e.U64(ck.rx)
	e.U64(ck.tx)
	for _, s := range ck.sensorRx {
		e.U64(s)
	}
	for i := range ck.phys {
		ck.phys[i].EncodeState(e)
	}
	for _, fm := range ck.fm {
		fm.EncodeState(e)
	}
	ck.dist.EncodeState(e)
	ck.table.EncodeState(e)
	ck.mgr.EncodeState(e)
	ck.gate.EncodeState(e)
	ck.est.EncodeState(e)
	e.I64(ck.hChecks)
	e.I64(ck.hDisagr)
	e.F64(ck.truthGap)
	e.F64(ck.params.TimeGap)
	e.F64(ck.params.StandStill)
	e.F64(ck.params.GapGain)
	e.F64(ck.params.SpeedGain)
	e.F64(ck.params.CruiseSpeed)
	e.F64(ck.params.MaxAccel)
	e.F64(ck.params.MaxBrake)
	*sortBuf = append((*sortBuf)[:0], ck.accelFrom...)
	sort.Slice(*sortBuf, func(i, j int) bool { return (*sortBuf)[i].from < (*sortBuf)[j].from })
	e.U32(uint32(len(*sortBuf)))
	for _, a := range *sortBuf {
		e.I64(int64(a.from))
		e.F64(a.accel)
	}
	e.I64(int64(ck.forcedBrakeUntil))
	ck.maneuver.EncodeState(e)
	e.Str(string(ck.wantRegion))
	e.I64(int64(ck.wantLane))
	e.Str(string(ck.heldRegion))
	e.Bool(ck.releaseHeld)
	e.I64(int64(ck.nextAttempt))
	e.I64(ck.laneChanges)
	e.I64(ck.emergencyBrakes)
	e.I64(ck.degradedTicks)
	e.I64(ck.beaconsSent)
}

// decodeCarCheckpoint reads one car's checkpoint into ck, allocating the
// nested state objects on first use.
func decodeCarCheckpoint(d *trace.Dec, ck *carCheckpoint) {
	ck.body.X = d.F64()
	ck.body.Lane = int(d.I64())
	ck.body.Speed = d.F64()
	ck.body.Accel = d.F64()
	ck.body.Length = d.F64()
	ck.clockAt = sim.Time(d.I64())
	ck.rx = d.U64()
	ck.tx = d.U64()
	for i := range ck.sensorRx {
		ck.sensorRx[i] = d.U64()
	}
	for i := range ck.phys {
		ck.phys[i].DecodeState(d)
	}
	for i := range ck.fm {
		if ck.fm[i] == nil {
			ck.fm[i] = &sensor.FaultManagementState{}
		}
		ck.fm[i].DecodeState(d)
	}
	if ck.dist == nil {
		ck.dist = &sensor.ReliableState{}
	}
	ck.dist.DecodeState(d)
	if ck.table == nil {
		ck.table = &coord.StateTableState{}
	}
	ck.table.DecodeState(d)
	if ck.mgr == nil {
		ck.mgr = &core.ManagerState{}
	}
	ck.mgr.DecodeState(d)
	ck.gate = core.DecodeGateState(d)
	ck.est = gear.LeadEstimator{}
	ck.est.DecodeState(d)
	ck.hChecks = d.I64()
	ck.hDisagr = d.I64()
	ck.truthGap = d.F64()
	ck.params.TimeGap = d.F64()
	ck.params.StandStill = d.F64()
	ck.params.GapGain = d.F64()
	ck.params.SpeedGain = d.F64()
	ck.params.CruiseSpeed = d.F64()
	ck.params.MaxAccel = d.F64()
	ck.params.MaxBrake = d.F64()
	ck.accelFrom = ck.accelFrom[:0]
	for i, n := 0, d.Count(16); i < n && d.Err() == nil; i++ {
		ck.accelFrom = append(ck.accelFrom, accelEntry{from: int(d.I64()), accel: d.F64()})
	}
	ck.forcedBrakeUntil = sim.Time(d.I64())
	ck.maneuver = vehicle.Maneuver{}
	ck.maneuver.DecodeState(d)
	ck.wantRegion = coord.Resource(d.Str())
	ck.wantLane = int(d.I64())
	ck.heldRegion = coord.Resource(d.Str())
	ck.releaseHeld = d.Bool()
	ck.nextAttempt = sim.Time(d.I64())
	ck.laneChanges = d.I64()
	ck.emergencyBrakes = d.I64()
	ck.degradedTicks = d.I64()
	ck.beaconsSent = d.I64()
}
