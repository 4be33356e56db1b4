// Package world assembles the automotive scenarios of paper Sec. VI-A on
// one partitioned world engine: a ring highway where every car runs the
// full KARYON stack — abstract distance sensing with validity, V2V
// cooperative state, a per-vehicle Safety Kernel choosing the Level of
// Service, the LoS-dependent ACC time gap, and a Simplex actuation gate —
// and a signalized intersection whose physical traffic light can fail and
// be replaced by the virtual traffic light (use case VI-A2).
//
// Both worlds run on sim.ShardedKernel under the snapshot/barrier
// discipline: every window each shard steps its entities in a fixed
// order; a step reads the immutable neighbor snapshot published at the
// last window edge and mutates only its own entity and its shard's lists;
// cross-entity traffic (a V2V beacon) is left in the sender's own state
// and applied at the single-threaded barrier in a fixed order; shared
// metrics accumulate at barriers in entity-id order; and every entity
// draws randomness from its own sim.NewStream streams. Under that
// discipline a run is a pure function of (seed, config) — byte-identical
// for every shard count.
package world

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"karyon/internal/coord"
	"karyon/internal/core"
	"karyon/internal/metrics"
	"karyon/internal/sim"
	"karyon/internal/wireless"
)

// LoSMode selects how a car's level of service is governed.
type LoSMode int

// LoS governance modes for experiments.
const (
	// ModeAdaptive runs the KARYON safety kernel (the paper's system).
	ModeAdaptive LoSMode = iota + 1
	// ModeFixed pins the LoS regardless of conditions but still honors
	// perception validity for the degraded-perception fallback.
	ModeFixed
	// ModeReckless pins LoS at the highest level AND ignores validity —
	// the "complex function without a safety kernel" baseline.
	ModeReckless
)

// HighwayConfig parameterizes the ring-highway scenario.
type HighwayConfig struct {
	// Length is the ring circumference in meters.
	Length float64
	// Cars is the number of vehicles.
	Cars int
	// Lanes is the number of lanes (default 1). With more than one lane,
	// vehicles overtake slow leaders through coordinated lane changes (use
	// case VI-A3): the maneuver region is reserved through the barrier
	// arbiter, so at most one vehicle changes lanes per road segment at a
	// time.
	Lanes int
	// ControlPeriod is the per-car control loop period. It is also the
	// sharded kernel's synchronization window.
	ControlPeriod sim.Time
	// V2VPeriod is the cooperative-state beacon period (0 disables V2V).
	// Must be a multiple of ControlPeriod.
	V2VPeriod sim.Time
	// V2VRange is how far a beacon reaches, in meters. It bounds the shard
	// count: each ring arc must be at least this long so a frame never
	// skips over a whole shard.
	V2VRange float64
	// Mode and FixedLoS govern LoS selection.
	Mode     LoSMode
	FixedLoS core.LoS
	// SensorSigma is the distance sensor's nominal noise (m).
	SensorSigma float64
	// Loss is the independent per-receiver beacon loss probability.
	Loss float64
	// Medium routes V2V beacons through the slot-level sharded radio
	// medium (wireless.ShardedMedium: airtime occupancy, overlap
	// collisions, carrier sense, jam windows) instead of the abstract
	// per-receiver loss draws. V2VRange and Loss carry over as the
	// medium's radio range and loss probability; JamV2V jams its
	// channels. Off by default — the abstract path stays byte-identical.
	Medium bool
	// Channels is the number of orthogonal radio channels in Medium mode
	// (min 1). Beacons spread across channels by car id, which divides
	// the slot contention; jam bursts cover every channel.
	Channels int
	// CarrierSense makes Medium-mode senders defer (skip) a beacon whose
	// slot is already audibly occupied or jammed — CSMA's
	// listen-before-talk, converting most would-be collisions into
	// deferrals.
	CarrierSense bool
}

// DefaultHighwayConfig returns a 30-car, 2 km ring.
func DefaultHighwayConfig() HighwayConfig {
	return HighwayConfig{
		Length:        2000,
		Cars:          30,
		ControlPeriod: 100 * sim.Millisecond,
		V2VPeriod:     100 * sim.Millisecond,
		V2VRange:      250,
		Mode:          ModeAdaptive,
		FixedLoS:      core.LevelSafe,
		SensorSigma:   0.3,
	}
}

// MaxShards returns the widest partition the config supports: each arc
// must be at least the V2V range so beacons only cross into adjacent
// shards.
func (cfg HighwayConfig) MaxShards() int {
	if cfg.V2VPeriod <= 0 || cfg.V2VRange <= 0 {
		return int(^uint(0) >> 1)
	}
	n := int(cfg.Length / cfg.V2VRange)
	if n < 1 {
		n = 1
	}
	return n
}

// hwSnap is one car's published state at a window edge.
type hwSnap struct {
	id     int
	x      float64
	speed  float64
	length float64
	lane   int
	// lane2 is the second occupied lane while a maneuver is in progress
	// (-1 when none): a lane-changing car conservatively blocks both.
	lane2 int
	shard int
}

func (e *hwSnap) occupies(lane int) bool {
	return e.lane == lane || e.lane2 == lane
}

// carHot is the struct-of-arrays mirror of the kinematic fields the
// per-shard snapshot refresh reads. Kept in one packed table indexed by
// car id (32 B/car — a 10k-car fleet fits in L2), it turns shardPhase's
// per-entry pointer chase through the full ~500-byte Car structs into
// reads from a dense, cache-resident array. Each slot is written only by
// its car's own step (on the owning shard) or at single-threaded barrier
// points (publishSnapshot, markManeuver), mirroring the ownership rules
// of the Car itself.
type carHot struct {
	x      float64
	speed  float64
	length float64
	lane   int32
	// lane2 is the maneuver's second occupied lane, -1 when none.
	lane2 int32
}

// syncHot republishes c's kinematic state into the hot table. It must run
// wherever that state changes: the end of the car's own control step, a
// maneuver grant at the barrier (markManeuver), and the full-rebuild
// publishSnapshot path (startup, collision resolution, checkpoint restore).
func (h *Highway) syncHot(c *Car) { h.hot[c.ID] = hotOf(c) }

// hotOf is c's kinematic state as the hot table holds it.
func hotOf(c *Car) carHot {
	lane2 := int32(-1)
	if c.maneuver.Active() {
		lane2 = int32(c.maneuver.TargetLane)
	}
	return carHot{
		x: c.Body.X, speed: c.Body.Speed, length: c.Body.Length,
		lane: int32(c.Body.Lane), lane2: lane2,
	}
}

// debugSnapshotSync, when set by a test, asserts at every barrier that the
// stitched snapshot still matches the cars' kinematic state — i.e. that no
// scheduled action violated the incremental snapshot's contract (snapshots
// are captured by the per-shard phase BEFORE runPending, so barrier
// actions must not mutate position/speed/lane/maneuver). Violations panic
// loudly instead of silently desyncing the next window.
var debugSnapshotSync = false

// Highway is the ring-road world on the sharded kernel. One instance
// serves every scale: an unsharded run is simply the partition at width 1,
// so the execution path — and the output bytes — are identical for every
// shard count.
type Highway struct {
	cfg  HighwayConfig
	sk   *sim.ShardedKernel
	part RingPartition
	cars []*Car // by id
	// order holds the cars by step rank: ascending (phase, id), the order
	// in which the shards step them (see Car.rank).
	order []*Car
	// design is the cars' shared design-time half (carDesign).
	design *carDesign

	// byShard lists each shard's cars in step-rank order: the order the
	// shard's step loop (shardPhase) steps them in.
	byShard  [][]*Car
	snap     []hwSnap // sorted by (x, id); replaced at barriers, never mutated
	snapEdge sim.Time

	// hot is the struct-of-arrays car hot state, indexed by car id (see
	// carHot). The shard phase refreshes arc snapshots from it instead of
	// dereferencing the cars.
	hot []carHot

	// Incremental snapshot machinery (the barrier-cost tentpole). Each
	// shard keeps its own sorted arc snapshot, refreshed on the shard
	// goroutines in the pre-barrier phase (shardPhase); the barrier only
	// hands boundary-crossing entries between arcs (mergeSnapshot) and
	// stitches the arcs into the global ring view by concatenation — arcs
	// are contiguous in x, so no comparison sort ever runs on the hook
	// goroutine in the steady state.
	arcs     [][]hwSnap // per shard, sorted by (x, id); shard-phase-owned
	outgoing [][]hwSnap // per shard: entries that left the arc this window

	// Linear collision-sweep scratch (accountMetrics): per-lane
	// next-occupant indices, equal-x group ends, and per-car results.
	nextOcc   [][]int32
	groupEnd  []int32
	sweepLead []int32
	sweepGap  []float64

	res *coord.Reservations

	// medium is the slot-level radio (nil unless cfg.Medium): the barrier
	// queues the window's beacon frames into it and resolves them against
	// the still-published previous snapshot.
	medium *wireless.ShardedMedium

	// Receiver-owned beacon delivery (delivery.go). Each shard's part
	// lists the window's beacon senders in step order; the abstract path
	// gathers them into senders in id order through the per-id scratch
	// bucket, while the medium orders frames by their own (start, sender)
	// key. The barrier's delivery stage then runs on every shard at once,
	// each shard delivering to the receivers it owns, with its counts in
	// its part and summed in shard order.
	// span[s] is the x extent of shard s's entries in the published
	// snapshot.
	senders []*Car
	bucket  []*Car
	parts   []*deliveryPart
	stageFn func(shard int)
	span    []arcSpan
	// lastDelivered snapshots the medium's delivered count at the
	// previous barrier; inOutage/outageStart track the current fleet-wide
	// beacon outage (windows with frames on air but nothing delivered).
	lastDelivered int64
	inOutage      bool
	outageStart   sim.Time
	// inaccess collects completed beacon-outage durations in
	// milliseconds — the paper's network-inaccessibility periods as seen
	// by the medium-backed fleet. Read through Inaccessibility(), which
	// also accounts for a still-open outage.
	inaccess metrics.Histogram

	barrierScheduler

	// jam models V2V inaccessibility (the paper's jammed channel) on the
	// abstract path: beacons sent inside the burst are lost. Written only
	// at barriers or while the world is stopped.
	jam wireless.Burst

	// Collisions counts bumper overlaps (the safety metric — the paper's
	// claim is that this stays zero with the kernel engaged).
	Collisions int64
	// TimeGaps collects observed time gaps (s) for every car at every
	// window barrier.
	TimeGaps metrics.Histogram
	// speedSum/speedN accumulate mean-speed statistics.
	speedSum float64
	speedN   int64

	beaconsDelivered int64
	beaconsLost      int64

	// Crossers counts barrier handoffs of cars between arc snapshots —
	// the "edges" the incremental barrier pays for. Together with
	// cfg.Cars it shows the serial barrier work scaling with boundary
	// traffic, not with world size.
	Crossers int64

	// rec is the attached trace recorder/verifier (nil unless RecordTo
	// or a replay attached one; see record.go).
	rec *recorder
}

// NewHighway builds the world over the sharded kernel. The kernel's window
// must equal cfg.ControlPeriod — each car steps exactly once per window,
// and the window is the conservative lookahead that justifies delivering
// beacons at the closing edge.
func NewHighway(sk *sim.ShardedKernel, cfg HighwayConfig) (*Highway, error) {
	if cfg.Cars < 1 || cfg.Length <= 0 {
		return nil, fmt.Errorf("world: invalid highway config %+v", cfg)
	}
	if cfg.ControlPeriod <= 0 {
		return nil, fmt.Errorf("world: control period must be positive")
	}
	if cfg.Lanes < 1 {
		cfg.Lanes = 1
	}
	if cfg.V2VRange <= 0 {
		cfg.V2VRange = 250
	}
	if cfg.V2VPeriod > 0 && cfg.V2VPeriod%cfg.ControlPeriod != 0 {
		return nil, fmt.Errorf("world: V2V period %v must be a multiple of the control period %v",
			cfg.V2VPeriod, cfg.ControlPeriod)
	}
	if sk.Window() != cfg.ControlPeriod {
		return nil, fmt.Errorf("world: kernel window %v must equal the control period %v",
			sk.Window(), cfg.ControlPeriod)
	}
	reach := 0.0
	if cfg.V2VPeriod > 0 {
		reach = cfg.V2VRange
	}
	part, err := NewRingPartition(cfg.Length, sk.Shards(), reach)
	if err != nil {
		return nil, err
	}
	if cfg.Medium && cfg.Channels < 1 {
		cfg.Channels = 1
	}
	h := &Highway{cfg: cfg, sk: sk, part: part, res: coord.NewReservations()}
	if cfg.Medium {
		mcfg := wireless.DefaultShardedConfig()
		mcfg.Range = cfg.V2VRange
		mcfg.LossProb = cfg.Loss
		mcfg.Channels = cfg.Channels
		mcfg.CarrierSense = cfg.CarrierSense
		mcfg.Ring = cfg.Length
		h.medium = wireless.NewShardedMedium(sk.Seed(), mcfg)
	}
	h.byShard = make([][]*Car, sk.Shards())
	h.arcs = make([][]hwSnap, sk.Shards())
	h.outgoing = make([][]hwSnap, sk.Shards())
	h.hot = make([]carHot, cfg.Cars)
	if h.design, err = newCarDesign(cfg); err != nil {
		return nil, err
	}
	// Cars are built in the order the shards step them, ascending (phase,
	// id), and stored by id: each shard's window then walks the cars'
	// memory forward. A car's position in that order is its step rank.
	order := make([]int, cfg.Cars)
	phase := make([]sim.Time, cfg.Cars)
	for i := range order {
		order[i], phase[i] = i, carPhase(sk.Seed(), i, cfg)
	}
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(phase[a], phase[b]), cmp.Compare(a, b))
	})
	h.cars = make([]*Car, cfg.Cars)
	h.order = make([]*Car, 0, cfg.Cars)
	spacing := cfg.Length / float64(cfg.Cars)
	for rank, i := range order {
		car, err := newCar(sk.Seed(), i, float64(i)*spacing, cfg, h.design)
		if err != nil {
			return nil, err
		}
		car.rank = rank
		h.cars[i] = car
		h.order = append(h.order, car)
	}
	h.initDelivery()
	return h, nil
}

// BuildHighway creates a sharded kernel with the config's window and the
// world on top of it. The shard count is clamped to cfg.MaxShards() so a
// small ring never fails on an over-wide partition — the output is
// byte-identical for every width anyway.
func BuildHighway(seed int64, shards int, cfg HighwayConfig) (*Highway, error) {
	if shards < 1 {
		shards = 1
	}
	if max := cfg.MaxShards(); shards > max {
		shards = max
	}
	if cfg.ControlPeriod <= 0 {
		return nil, fmt.Errorf("world: control period must be positive")
	}
	sk, err := sim.NewShardedKernel(seed, shards, cfg.ControlPeriod)
	if err != nil {
		return nil, err
	}
	return NewHighway(sk, cfg)
}

// Cars returns the vehicles.
func (h *Highway) Cars() []*Car { return h.cars }

// Kernel returns the sharded kernel the world runs on.
func (h *Highway) Kernel() *sim.ShardedKernel { return h.sk }

// Now returns the last window edge every shard has reached.
func (h *Highway) Now() sim.Time { return h.sk.Now() }

// MeanSpeed returns the time-averaged fleet speed (m/s).
func (h *Highway) MeanSpeed() float64 {
	if h.speedN == 0 {
		return 0
	}
	return h.speedSum / float64(h.speedN)
}

// Flow returns the traffic flow in vehicles/hour past a point: mean speed
// times density.
func (h *Highway) Flow() float64 {
	density := float64(h.cfg.Cars) / h.cfg.Length // veh/m
	return h.MeanSpeed() * density * 3600
}

// BeaconStats returns (sent, delivered, lost) V2V beacon counts.
func (h *Highway) BeaconStats() (sent, delivered, lost int64) {
	for _, c := range h.cars {
		sent += c.beaconsSent
	}
	return sent, h.beaconsDelivered, h.beaconsLost
}

// JamV2V renders the V2V channel inaccessible for the next d units of
// virtual time, extending any ongoing burst — the external interference
// that produces the paper's network-inaccessibility periods. Call it at a
// barrier (Schedule) or while the world is not running.
func (h *Highway) JamV2V(d sim.Time) {
	now := h.sk.Now()
	if h.medium != nil {
		h.medium.JamAll(now, d)
	}
	h.jam.Extend(now, d)
}

// MediumStats returns the slot-level radio's delivery accounting (zero
// value when the world runs the abstract V2V path).
func (h *Highway) MediumStats() wireless.ShardedStats {
	if h.medium == nil {
		return wireless.ShardedStats{}
	}
	return h.medium.Stats()
}

// Inaccessibility returns the observed fleet-wide beacon-outage durations
// in milliseconds (Medium mode). An outage still open at the last window
// edge is included as if it closed there — a jam burst abutting the end
// of a run must not vanish from the histogram. The returned histogram is
// an independent clone: reading or observing it never perturbs the
// world's accounting.
func (h *Highway) Inaccessibility() metrics.Histogram {
	out := h.inaccess.Clone()
	if h.inOutage {
		out.Observe(float64(h.sk.Now()-h.outageStart) / float64(sim.Millisecond))
	}
	return out
}

// Start assigns cars to shards, publishes the first snapshot, and
// registers the per-shard step loop and the window hook.
func (h *Highway) Start() error {
	h.assignShards()
	h.publishSnapshot(0)
	h.sk.OnShardWindow(h.shardPhase)
	h.sk.OnWindow(h.onWindow)
	return nil
}

// Run advances the world by d units of virtual time (rounded up to a
// whole number of windows so barriers stay on the window grid).
func (h *Highway) Run(d sim.Time) error {
	return h.RunContext(context.Background(), d)
}

// RunContext is Run with cancellation, checked at every window barrier.
func (h *Highway) RunContext(ctx context.Context, d sim.Time) error {
	return h.sk.Run(ctx, h.sk.Now()+d)
}

// onWindow is the single-threaded barrier work at every window edge, in a
// fixed order: scheduled world actions, snapshot reconciliation (the
// per-shard phase already refreshed and sorted the arc snapshots in
// parallel), metrics accounting, reservation arbitration, and observer
// hooks.
//
// Scheduled actions (Schedule callbacks, campaign injections) must not
// mutate car kinematics (position, speed, lane, maneuver) — those were
// snapshotted by the per-shard phase just before this barrier. Actions
// that influence the plant (ForceBrake, sensor faults, jams) set flags the
// next window's control steps read, which is the same contract the
// campaign engine has always followed.
func (h *Highway) onWindow(edge sim.Time) {
	// Deliver the closed window's beacons first, against the snapshot
	// they were sent under and before this barrier's scheduled actions — a
	// jam injected at this edge must not reach back into the window that
	// just ended.
	if err := h.deliverBeacons(edge); err != nil {
		return // the kernel latched the stage's error and fails the Run
	}
	h.runPending(edge)
	h.mergeSnapshot(edge)
	if debugSnapshotSync {
		h.assertSnapshotSync(edge)
	}
	if h.accountMetrics() {
		// Collision resolution teleported a car: rebuild ownership, the
		// snapshot, and the arcs from scratch so the next window sees the
		// resolved positions (rare — zero in nominal runs).
		h.assignShards()
		h.publishSnapshot(edge)
	}
	h.arbitrate(edge)
	h.runHooks(edge)
	if h.rec != nil {
		// Last, so the digest sees the fully reconciled barrier state.
		h.recWindow(edge)
	}
}

// assignShards rebuilds shard ownership from current positions. Iteration
// is in step-rank order, so every ownership list comes out rank-ordered.
// This is the full-rebuild path (startup and collision resolution);
// steady-state barriers maintain ownership incrementally in mergeSnapshot.
func (h *Highway) assignShards() {
	for i := range h.byShard {
		h.byShard[i] = h.byShard[i][:0]
	}
	for _, c := range h.order {
		owner := h.part.ShardOf(c.Body.X)
		c.shard = owner
		h.byShard[owner] = append(h.byShard[owner], c)
	}
}

// publishSnapshot replaces the shared snapshot with the current car
// states, sorted by (x, id), and re-partitions it into the per-shard arc
// snapshots. In-window steps only ever read the published snapshot. This
// is the full-rebuild path; steady-state barriers use mergeSnapshot.
func (h *Highway) publishSnapshot(edge sim.Time) {
	if cap(h.snap) < len(h.cars) {
		h.snap = make([]hwSnap, len(h.cars))
	}
	snap := h.snap[:len(h.cars)]
	for i, c := range h.cars {
		// Resync the hot table on the full-rebuild path: it covers every
		// out-of-band kinematic change (startup, collision teleport,
		// checkpoint restore).
		h.syncHot(c)
		hot := &h.hot[c.ID]
		snap[i] = hwSnap{
			id: c.ID, x: hot.x, speed: hot.speed, length: hot.length,
			lane: int(hot.lane), lane2: int(hot.lane2), shard: c.shard,
		}
	}
	slices.SortFunc(snap, func(a, b hwSnap) int {
		if c := cmp.Compare(a.x, b.x); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	h.snap = snap
	h.snapEdge = edge
	for i := range h.arcs {
		h.arcs[i] = h.arcs[i][:0]
		h.outgoing[i] = h.outgoing[i][:0]
	}
	for _, e := range h.snap {
		h.arcs[e.shard] = append(h.arcs[e.shard], e)
	}
	h.recordSpans()
}

// snapLess is the snapshot order: ascending (x, id). The key is unique
// (ids are distinct), so any sorting algorithm yields the same sequence.
func snapLess(a, b hwSnap) bool {
	if a.x != b.x {
		return a.x < b.x
	}
	return a.id < b.id
}

// insertionSortSnaps restores (x, id) order — O(n + inversions), linear on
// the near-sorted per-window refresh where cars move a few meters and
// almost never reorder.
func insertionSortSnaps(s []hwSnap) {
	for i := 1; i < len(s); i++ {
		e := s[i]
		j := i - 1
		for j >= 0 && snapLess(e, s[j]) {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = e
	}
}

// shardPhase is the shard's window, on the shard's own goroutine. Unless
// the world is stopped, it first steps the shard's cars in step-rank
// order, each at its phase in the window. Then it refreshes the arc
// snapshot: it rewrites the arc's entries from the shard's cars, restores
// (x, id) order with a near-sorted insertion pass, and sets aside the
// entries whose position now belongs to another arc (boundary crossers,
// including the ring wrap at x=0, which always sorts to the front of the
// last shard's arc). It touches only shard-owned state — the published
// global snapshot stays immutable until the barrier.
func (h *Highway) shardPhase(shard int, edge sim.Time) {
	if !h.stopped {
		s := h.sk.Shard(shard)
		open := edge - h.cfg.ControlPeriod
		for _, c := range h.byShard[shard] {
			s.Advance(open + c.phase)
			c.step(h, s)
		}
	}
	arc := h.arcs[shard]
	sorted := true
	for i := range arc {
		// Read the SoA hot table, not the car: the refresh walks a dense
		// 32 B/entry array instead of pointer-chasing the full car structs.
		hot := &h.hot[arc[i].id]
		arc[i] = hwSnap{
			id: arc[i].id, x: hot.x, speed: hot.speed, length: hot.length,
			lane: int(hot.lane), lane2: int(hot.lane2), shard: shard,
		}
		if i > 0 && snapLess(arc[i], arc[i-1]) {
			sorted = false
		}
	}
	if !sorted {
		insertionSortSnaps(arc)
	}
	// After the sort, crossers sit at the arc's ends: a prefix that
	// dropped below the arc (the ring wrap) and a suffix that moved past
	// the upper boundary. Ownership is decided by the same ShardOf the
	// full rebuild uses, so boundary-sitting floats classify identically.
	out := h.outgoing[shard][:0]
	lo, hi := 0, len(arc)
	for lo < hi {
		dst := h.part.ShardOf(arc[lo].x)
		if dst == shard {
			break
		}
		e := arc[lo]
		e.shard = dst
		out = append(out, e)
		lo++
	}
	for hi > lo {
		dst := h.part.ShardOf(arc[hi-1].x)
		if dst == shard {
			break
		}
		e := arc[hi-1]
		e.shard = dst
		out = append(out, e)
		hi--
	}
	h.outgoing[shard] = out
	h.arcs[shard] = arc[lo:hi]
}

// mergeSnapshot is the barrier's snapshot reconciliation: hand each
// boundary crosser to its new arc (and move its car between the
// rank-ordered ownership lists), then stitch the per-shard arcs into the
// global ring view. Arcs cover contiguous, ascending x ranges, so the
// stitch is a straight concatenation — the serial comparison work is
// O(crossers), not O(n log n), and no snapshot entry is constructed on
// the hook goroutine.
func (h *Highway) mergeSnapshot(edge sim.Time) {
	for src := range h.outgoing {
		for _, e := range h.outgoing[src] {
			h.insertArcEntry(e)
			h.moveOwner(h.cars[e.id], src, e.shard)
			h.Crossers++
		}
		h.outgoing[src] = h.outgoing[src][:0]
	}
	if cap(h.snap) < len(h.cars) {
		h.snap = make([]hwSnap, 0, len(h.cars))
	}
	out := h.snap[:0]
	for _, arc := range h.arcs {
		out = append(out, arc...)
	}
	h.snap = out
	h.snapEdge = edge
	h.recordSpans()
}

// assertSnapshotSync panics if any stitched entry or hot-table entry
// diverged from its car — the loud failure mode for a Schedule action
// that mutated kinematics in violation of the onWindow contract (see
// debugSnapshotSync). Accounting reads speeds from the hot table, so every
// car's entry is checked against its body: x, speed, length, lane, lane2.
func (h *Highway) assertSnapshotSync(edge sim.Time) {
	if len(h.snap) != len(h.cars) {
		panic(fmt.Sprintf("world: snapshot holds %d entries for %d cars at %v",
			len(h.snap), len(h.cars), edge))
	}
	for i := range h.snap {
		e := &h.snap[i]
		c := h.cars[e.id]
		if e.x != c.Body.X || e.speed != c.Body.Speed || e.lane != c.Body.Lane {
			panic(fmt.Sprintf(
				"world: snapshot desync at %v: car %d snap(x=%v v=%v lane=%d) body(x=%v v=%v lane=%d) — a barrier action mutated kinematics",
				edge, c.ID, e.x, e.speed, e.lane, c.Body.X, c.Body.Speed, c.Body.Lane))
		}
	}
	for _, c := range h.cars {
		if hot, body := h.hot[c.ID], hotOf(c); hot != body {
			panic(fmt.Sprintf(
				"world: hot table desync at %v: car %d hot%+v body%+v — a barrier action mutated kinematics",
				edge, c.ID, hot, body))
		}
	}
}

// insertArcEntry inserts e into its destination arc at its (x, id) slot.
// Crossers land within a window's travel of the boundary, so the shift is
// a handful of entries.
func (h *Highway) insertArcEntry(e hwSnap) {
	arc := h.arcs[e.shard]
	at := sort.Search(len(arc), func(i int) bool { return snapLess(e, arc[i]) })
	arc = append(arc, hwSnap{})
	copy(arc[at+1:], arc[at:])
	arc[at] = e
	h.arcs[e.shard] = arc
}

// moveOwner moves c between the rank-ordered per-shard ownership lists
// and records its new shard — the incremental replacement for a full
// assignShards pass.
func (h *Highway) moveOwner(c *Car, src, dst int) {
	list := h.byShard[src]
	at := sort.Search(len(list), func(i int) bool { return list[i].rank >= c.rank })
	copy(list[at:], list[at+1:])
	list[len(list)-1] = nil
	h.byShard[src] = list[:len(list)-1]
	list = h.byShard[dst]
	at = sort.Search(len(list), func(i int) bool { return list[i].rank >= c.rank })
	list = append(list, nil)
	copy(list[at+1:], list[at:])
	list[at] = c
	h.byShard[dst] = list
	c.shard = dst
}

// accountMetrics folds per-car observations into the shared totals in
// car-id order, and detects + resolves collisions against the fresh
// snapshot. Every car's leader comes from one linear sweep per lane over
// the already-sorted snapshot (sweepLeaders) instead of a per-car binary
// search — O(lanes·n) with memcpy-class constants. Speeds come from the
// dense hot table, which equals the bodies at every barrier
// (assertSnapshotSync checks it), so the walk touches a car only to
// resolve a collision. It reports whether any collision was resolved.
func (h *Highway) accountMetrics() bool {
	h.sweepLeaders()
	resolved := false
	for id := range h.hot {
		speed := h.hot[id].speed
		var lead *hwSnap
		var gap float64
		if li := h.sweepLead[id]; li >= 0 {
			lead = &h.snap[li]
			gap = h.sweepGap[id]
		}
		if lead != nil && gap <= 0 {
			c := h.cars[id]
			h.Collisions++
			// Resolve the overlap so one event is counted once, not forever.
			c.Body.X = math.Mod(lead.x-lead.length-0.5+h.cfg.Length, h.cfg.Length)
			c.Body.Speed = lead.speed
			speed = lead.speed
			resolved = true
		} else if lead != nil && speed > 1 {
			h.TimeGaps.Observe(gap / speed)
		}
		h.speedSum += speed
		h.speedN++
	}
	return resolved
}

// sweepLeaders computes every car's snapshot leader — the first entry in
// ring order past its equal-x group that shares a lane with it, exactly
// the seed's leaderAt — plus the bumper-to-bumper gap, in linear passes:
// a per-lane backward sweep builds "next occupant of lane L at or after
// index i" tables, and one forward pass resolves each entry against them.
func (h *Highway) sweepLeaders() {
	n := len(h.snap)
	if len(h.sweepLead) < len(h.cars) {
		h.sweepLead = make([]int32, len(h.cars))
		h.sweepGap = make([]float64, len(h.cars))
	}
	if n < 2 {
		for i := range h.sweepLead {
			h.sweepLead[i] = -1
		}
		return
	}
	lanes := h.cfg.Lanes
	for len(h.nextOcc) < lanes {
		h.nextOcc = append(h.nextOcc, nil)
	}
	for l := 0; l < lanes; l++ {
		next := h.nextOcc[l]
		if cap(next) < n {
			next = make([]int32, n)
		}
		next = next[:n]
		last := int32(-1)
		for d := 2*n - 1; d >= 0; d-- {
			j := d % n
			if h.snap[j].occupies(l) {
				last = int32(j)
			}
			if d < n {
				next[d] = last
			}
		}
		h.nextOcc[l] = next
	}
	// groupEnd[i] is one past the last index of i's equal-x run — where
	// the seed's sort.Search(x > snap[i].x) scan started.
	ge := h.groupEnd
	if cap(ge) < n {
		ge = make([]int32, n)
	}
	ge = ge[:n]
	for i := n - 1; i >= 0; i-- {
		if i == n-1 || h.snap[i].x != h.snap[i+1].x {
			ge[i] = int32(i + 1)
		} else {
			ge[i] = ge[i+1]
		}
	}
	h.groupEnd = ge
	for i := 0; i < n; i++ {
		e := &h.snap[i]
		at := int(ge[i]) % n
		best := int32(-1)
		bestSteps := n
		for l := 0; l < lanes; l++ {
			if !e.occupies(l) {
				continue
			}
			cand := h.nextOcc[l][at]
			if cand < 0 {
				continue
			}
			if int(cand) == i {
				// The only occupant in [at, i) is the car itself: the next
				// one strictly after it is the candidate (it sits later in
				// the seed's circular scan order).
				cand = h.nextOcc[l][(i+1)%n]
				if int(cand) == i {
					continue // sole occupant of the lane
				}
			}
			steps := (int(cand) - at + n) % n
			if steps < bestSteps {
				bestSteps = steps
				best = cand
			}
		}
		h.sweepLead[e.id] = best
		if best >= 0 {
			le := &h.snap[best]
			center := math.Mod(le.x-e.x+2*h.cfg.Length, h.cfg.Length)
			h.sweepGap[e.id] = center - le.length
		}
	}
}

// arbitrate processes the cars' reservation intents in id order: releases
// first, then requests. The barrier is the agreement round — at most one
// holder per region, decided deterministically — and a granted maneuver
// begins here, against the fresh snapshot, so its dual-lane occupancy is
// visible to every car from the very first step of the next window
// (markManeuver patches the published snapshot in place, so no republish
// is needed).
func (h *Highway) arbitrate(edge sim.Time) {
	for _, c := range h.cars {
		if c.releaseHeld {
			if c.heldRegion != "" {
				h.res.Release(c.heldRegion, int64(c.ID))
				if h.rec != nil {
					h.captureRelease(c, c.heldRegion)
				}
				c.heldRegion = ""
			}
			c.releaseHeld = false
		}
	}
	for _, c := range h.cars {
		if c.wantRegion == "" {
			continue
		}
		region := c.wantRegion
		c.wantRegion = ""
		if c.maneuver.Active() || c.heldRegion != "" {
			continue
		}
		// Conditions may have changed since the request: re-validate
		// against the barrier's fresh snapshot before committing.
		if !h.laneClearFor(c, c.wantLane) {
			continue
		}
		if !h.res.Acquire(region, int64(c.ID), edge, edge+5*sim.Second) {
			continue
		}
		if err := c.maneuver.Begin(c.wantLane, 3); err != nil {
			h.res.Release(region, int64(c.ID))
			continue
		}
		c.heldRegion = region
		if h.rec != nil {
			h.captureGrant(c, region)
		}
		// Mark the dual-lane occupancy in the snapshot immediately: a
		// later grantee in this same barrier (different region, same
		// target lane) must see this maneuver in its clearance check, not
		// the pre-grant snapshot.
		h.markManeuver(c)
	}
}

// markManeuver updates c's snapshot entry in place with its fresh
// maneuver target lane. The entry keeps its (x, id) key, so the sort
// order is untouched.
func (h *Highway) markManeuver(c *Car) {
	n := len(h.snap)
	at := sort.Search(n, func(i int) bool {
		if h.snap[i].x != c.Body.X {
			return h.snap[i].x >= c.Body.X
		}
		return h.snap[i].id >= c.ID
	})
	if at < n && h.snap[at].id == c.ID && h.snap[at].x == c.Body.X {
		h.snap[at].lane2 = c.maneuver.TargetLane
	}
	// Keep the hot table in step: the next shard phase must see the
	// maneuver's dual-lane occupancy too.
	h.syncHot(c)
}

// leaderFor returns the snapshot entry of the nearest car ahead of c that
// shares a lane with it, and the bumper-to-bumper gap with the leader's
// position extrapolated to now. The sorted snapshot turns the old O(n)
// fleet scan into an O(log n) search plus a short walk.
func (h *Highway) leaderFor(c *Car, now sim.Time) (*hwSnap, float64) {
	dt := (now - h.snapEdge).Seconds()
	return h.leaderScan(c, dt)
}

// leaderAt is leaderFor at the snapshot instant (no extrapolation) — the
// barrier's collision accounting view.
func (h *Highway) leaderAt(c *Car) (*hwSnap, float64) {
	return h.leaderScan(c, 0)
}

func (h *Highway) leaderScan(c *Car, dt float64) (*hwSnap, float64) {
	n := len(h.snap)
	if n < 2 {
		return nil, 0
	}
	x := c.Body.X
	at := sort.Search(n, func(i int) bool { return h.snap[i].x > x })
	for i := 0; i < n; i++ {
		e := &h.snap[(at+i)%n]
		if e.id == c.ID || !h.sharesLane(c, e) {
			continue
		}
		lx := e.x + e.speed*dt
		center := math.Mod(lx-x+2*h.cfg.Length, h.cfg.Length)
		return e, center - e.length
	}
	return nil, 0
}

func (h *Highway) sharesLane(c *Car, e *hwSnap) bool {
	for lane := 0; lane < h.cfg.Lanes; lane++ {
		if c.occupies(lane) && e.occupies(lane) {
			return true
		}
	}
	return false
}

// laneClearFor reports whether the target lane has room for c: a safe gap
// ahead and a safe gap to the first follower behind, judged against the
// snapshot.
func (h *Highway) laneClearFor(c *Car, lane int) bool {
	n := len(h.snap)
	if n < 2 {
		return true
	}
	x := c.Body.X
	aheadGap, behindGap := math.MaxFloat64, math.MaxFloat64
	var aheadSpeed, behindSpeed float64
	at := sort.Search(n, func(i int) bool { return h.snap[i].x > x })
	for i := 0; i < n; i++ {
		e := &h.snap[(at+i)%n]
		if e.id == c.ID || !e.occupies(lane) {
			continue
		}
		fwd := math.Mod(e.x-x+h.cfg.Length, h.cfg.Length)
		aheadGap = fwd - e.length
		aheadSpeed = e.speed
		break
	}
	for i := 1; i <= n; i++ {
		e := &h.snap[((at-i)%n+n)%n]
		if e.id == c.ID || !e.occupies(lane) {
			continue
		}
		back := math.Mod(x-e.x+h.cfg.Length, h.cfg.Length)
		behindGap = back - c.Body.Length
		behindSpeed = e.speed
		break
	}
	// Ahead: the desired following gap plus a closing-speed margin (the
	// maneuver takes ~3 s during which the gap shrinks by the speed
	// difference), with an absolute floor for congested low-speed traffic.
	closing := c.Body.Speed - aheadSpeed
	if closing < 0 {
		closing = 0
	}
	aheadNeed := c.params.DesiredGap(c.Body.Speed) + 4*closing
	if aheadNeed < 15 {
		aheadNeed = 15
	}
	if aheadGap < aheadNeed {
		return false
	}
	// Behind: the follower needs its own desired gap plus closing margin,
	// with an absolute floor — a fast car must never cut in overlapping a
	// slow follower just because the relative-speed term goes negative.
	need := 10 + 1.2*behindSpeed + 2*(behindSpeed-c.Body.Speed)
	if need < 12 {
		need = 12
	}
	return behindGap >= need
}

// beaconDue reports whether c broadcasts in the window containing now.
// Beacon windows are staggered by car id so the V2V load spreads evenly
// when the beacon period spans several windows.
func (h *Highway) beaconDue(c *Car, now sim.Time) bool {
	if h.cfg.V2VPeriod <= 0 {
		return false
	}
	k := int64(h.cfg.V2VPeriod / h.cfg.ControlPeriod)
	if k <= 1 {
		return true
	}
	window := int64(now / h.cfg.ControlPeriod)
	return (window+int64(c.ID))%k == 0
}

// beacon is a car's pending cooperative-state beacon: the abstract path
// delivers it straight from the sender, and a slot-level frame carries a
// pointer to it as its payload.
type beacon struct {
	state coord.CoopState
	accel float64
}

// beaconSlotJitter spreads Medium-mode transmissions inside their window
// beyond what the control phases already do: the offset is drawn from the
// sender's own entity stream, so the slot a beacon lands in is a pure
// function of (seed, car), never of shard layout.
const beaconSlotJitter = 800 * sim.Microsecond

// sendBeacon broadcasts the car's cooperative state. The car writes the
// beacon into its pending slot — in Medium mode also the frame that
// carries it — and appends itself to its shard's sender list for the
// window, in step order. At the barrier that closes the window
// deliverBeacons fans each beacon out to the receivers in range of the
// same immutable snapshot the sender transmitted against (the snapshot is
// only replaced after the delivery stage): on the abstract path directly,
// in car-id order; in Medium mode through the medium's contention
// resolution, in on-air order.
func (h *Highway) sendBeacon(shard *sim.Shard, c *Car, now sim.Time) {
	c.pend = beacon{
		state: coord.CoopState{
			ID:       wireless.NodeID(c.ID),
			Pos:      wireless.Position{X: c.Body.X},
			Speed:    c.Body.Speed,
			Lane:     c.Body.Lane,
			Intent:   "cruise",
			Time:     now,
			Validity: 1,
		},
		accel: c.Body.Accel,
	}
	edge := h.sk.NextEdge(now)
	if h.medium != nil {
		// The frame's slot start comes from the car's own jitter stream,
		// clamped so its airtime fits the sending window.
		lim := edge - h.medium.Config().Airtime
		start := now + sim.Time(c.tx.Int63n(int64(beaconSlotJitter)))
		if start > lim {
			start = lim
		}
		if start < now {
			start = now // a step in the window's last airtime still sends now
		}
		c.pendTx = wireless.ShardedTx{
			From:    wireless.NodeID(c.ID),
			Channel: c.ID % h.cfg.Channels,
			Pos:     wireless.Position{X: c.Body.X},
			Start:   start,
			// Retry lets a carrier-sense deferral re-contend when the sensed
			// occupancy clears, up to the window's last in-window start — CSMA
			// backoff as latency, not loss.
			Retry:   lim,
			Payload: &c.pend,
		}
	}
	p := h.parts[shard.Index()]
	p.senders = append(p.senders, c)
	// One event per beacon, at the send instant, so Executed counts a
	// step and its beacon apart.
	shard.Advance(now)
}
