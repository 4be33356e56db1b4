package world

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"karyon/internal/coord"
	"karyon/internal/sim"
	"karyon/internal/trace"
	"karyon/internal/wireless"
)

// This file is the recording half of the record/replay layer: a trace
// writer fed from the window barrier, a width-invariant state digest,
// decision capture in the arbitration and handoff paths, and periodic
// full-state checkpoints, visited straight in the live world by each
// component's State method, which names each restorable field once for
// both the encoding and the restore, so any window range can later be
// replayed without re-simulating from t=0.
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

	// enc is the checkpoint buffer, reused across checkpoints.
	enc trace.Enc
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

// checkpoint visits the complete restorable world state, straight in
// the live world: every car's stack, the behavioral counters, the
// reservation table, and the radio medium. The output-only histograms are
// deliberately absent — see the file comment.
func (h *Highway) checkpoint(c *trace.Codec) {
	if !c.LenIs(len(h.cars), "car") {
		return
	}
	for _, car := range h.cars {
		car.state(c)
	}
	trace.Int(c, &h.Collisions)
	trace.Int(c, &h.Crossers)
	c.F64(&h.speedSum)
	trace.Int(c, &h.speedN)
	trace.Int(c, &h.beaconsDelivered)
	trace.Int(c, &h.beaconsLost)
	trace.Int(c, &h.lastDelivered)
	c.Bool(&h.inOutage)
	trace.Int(c, &h.outageStart)
	trace.Int(c, &h.jam.Start)
	trace.Int(c, &h.jam.Until)
	h.res.State(c)
	medium := h.medium != nil
	c.Bool(&medium)
	if c.Decoding() && medium != (h.medium != nil) {
		c.Fail("checkpoint medium presence (%v) does not match the world (%v)", medium, h.medium != nil)
		return
	}
	if h.medium != nil {
		if c.Decoding() {
			// The checkpointed stream states cover only receivers that
			// drew randomness before the checkpoint; priming creates every
			// receiver's stream at its deterministic initial state first,
			// so the restore is exact for both populations.
			h.medium.Prime(0, wireless.NodeID(len(h.cars)-1))
		}
		h.medium.State(c)
	}
}

// encodeCheckpoint appends the world's checkpoint to e.
func (h *Highway) encodeCheckpoint(e *trace.Enc) { h.checkpoint(trace.Encoder(e)) }

// restoreCheckpoint rewinds a freshly built (and Started) world to a
// checkpoint taken at edge: the checkpoint itself, then kernel warp and
// the same assignShards/publishSnapshot sequence Start uses, so the next
// window opens exactly as it did in the recorded run.
// Scheduled actions at or before the checkpoint edge already happened
// inside it and are dropped. The checkpoint bytes are hostile input:
// anything that does not fit the world is an error, never a panic. A
// failed restore leaves the world half rewound; discard it.
func (h *Highway) restoreCheckpoint(state []byte, edge sim.Time) error {
	d := trace.NewDec(state)
	h.checkpoint(trace.Decoder(d))
	if n := d.Remaining(); d.Err() == nil && n > 0 {
		d.Fail("%d trailing bytes", n)
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("world: decoding checkpoint: %w", err)
	}
	if err := h.sk.Warp(edge); err != nil {
		return err
	}
	h.dropPendingThrough(edge)
	h.assignShards()
	h.publishSnapshot(edge)
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

// state visits the car's complete restorable state, straight in its
// stack, in a fixed field order. The state table is visited in two
// places: the neighbours' states after the sensors, their beaconed
// accelerations after the ACC parameters. A restored position that is not
// a finite number fails the decode: shard ownership is a function of it.
func (c *Car) state(k *trace.Codec) {
	k.F64(&c.Body.X)
	trace.Int(k, &c.Body.Lane)
	k.F64(&c.Body.Speed)
	k.F64(&c.Body.Accel)
	k.F64(&c.Body.Length)
	if k.Decoding() && (math.IsNaN(c.Body.X) || math.IsInf(c.Body.X, 0)) {
		k.Fail("car %d at position %v", c.ID, c.Body.X)
	}
	now := c.clock.Now()
	trace.Int(k, &now)
	if k.Decoding() {
		c.clock.Set(now)
	}
	stream(k, c.rx)
	stream(k, c.tx)
	for _, s := range c.sensorRx {
		stream(k, s)
	}
	for _, in := range c.inputs {
		in.Physical().State(k)
	}
	for _, in := range c.inputs {
		in.FaultManagement().State(k)
	}
	c.dist.State(k)
	c.table.State(k)
	c.manager.State(k)
	c.gate.State(k)
	c.est.State(k)
	trace.Int(k, &c.hidden.Checks)
	trace.Int(k, &c.hidden.Disagreements)
	k.F64(&c.truthGap)
	p := &c.params
	k.F64(&p.TimeGap)
	k.F64(&p.StandStill)
	k.F64(&p.GapGain)
	k.F64(&p.SpeedGain)
	k.F64(&p.CruiseSpeed)
	k.F64(&p.MaxAccel)
	k.F64(&p.MaxBrake)
	c.table.AccelState(k)
	trace.Int(k, &c.forcedBrakeUntil)
	c.maneuver.State(k)
	k.Str((*string)(&c.wantRegion))
	trace.Int(k, &c.wantLane)
	k.Str((*string)(&c.heldRegion))
	k.Bool(&c.releaseHeld)
	trace.Int(k, &c.nextAttempt)
	trace.Int(k, &c.LaneChanges)
	trace.Int(k, &c.EmergencyBrakes)
	trace.Int(k, &c.DegradedTicks)
	trace.Int(k, &c.beaconsSent)
}

// stream visits a random stream's one-word generator state.
func stream(k *trace.Codec, s *sim.Stream) {
	state := s.State()
	k.U64(&state)
	if k.Decoding() {
		s.Restore(state)
	}
}
