package world

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"karyon/internal/coord"
	"karyon/internal/metrics"
	"karyon/internal/sim"
	"karyon/internal/vehicle"
	"karyon/internal/wireless"
)

// Road identifies an approach direction at the intersection.
type Road int

// The two crossing roads.
const (
	RoadNS Road = iota + 1
	RoadEW
)

// String renders the road.
func (r Road) String() string {
	if r == RoadNS {
		return "NS"
	}
	return "EW"
}

// IntersectionConfig parameterizes the scenario.
type IntersectionConfig struct {
	// ApproachLength is how far from the stop line cars spawn.
	ApproachLength float64
	// BoxLength is the conflict zone's extent past the stop line.
	BoxLength float64
	// MeanArrival is the mean inter-arrival time per road.
	MeanArrival sim.Time
	// GreenFor is each phase's green duration.
	GreenFor sim.Time
	// LightFailsAt is when the physical light stops transmitting
	// (0 = never fails).
	LightFailsAt sim.Time
	// VirtualBackup engages the virtual-traffic-light fallback.
	VirtualBackup bool
	// ControlPeriod is the per-car control loop period; it is also the
	// sharded kernel's window and the light's I-am-alive beacon period.
	ControlPeriod sim.Time
	// AliveTimeout is the silence after which cars declare the physical
	// light dead.
	AliveTimeout sim.Time
	// HandoverGuard is an all-red guard period between declaring the
	// physical light dead and obeying the virtual one, so a stale green
	// belief and the (unsynchronized) virtual phase can never admit
	// crossing traffic simultaneously.
	HandoverGuard sim.Time
	// Medium routes the light's I-am-alive beacons through the slot-level
	// sharded radio (wireless.ShardedMedium) instead of the analytic
	// on-grid model: each beacon occupies airtime on the plane around the
	// stop line, can be lost or jammed per receiver, and every car's
	// liveness belief comes from its own last reception. The virtual
	// light's replica channel stays analytic (it models a replicated
	// automaton, not a single transmitter).
	Medium bool
	// Loss is the independent per-receiver beacon loss probability
	// (Medium mode).
	Loss float64
	// Channels is the orthogonal channel count in Medium mode (min 1);
	// the light transmits on channel 0, jams cover every channel.
	Channels int
}

// DefaultIntersectionConfig returns the E13 scenario parameters.
func DefaultIntersectionConfig() IntersectionConfig {
	return IntersectionConfig{
		ApproachLength: 300,
		BoxLength:      12,
		MeanArrival:    3 * sim.Second,
		GreenFor:       8 * sim.Second,
		LightFailsAt:   0,
		VirtualBackup:  true,
		ControlPeriod:  100 * sim.Millisecond,
		AliveTimeout:   500 * sim.Millisecond,
		HandoverGuard:  sim.Second,
	}
}

// Virtual-traffic-light timing: the leader-election stabilization the
// timed virtual stationary automaton needs before its state may be
// trusted, both at takeover and after an inaccessibility burst.
const (
	vLeaderTimeout = 400 * sim.Millisecond
	vReestablish   = 400 * sim.Millisecond
)

// icar is one vehicle approaching the intersection. Position is measured
// along its road: x grows toward the stop line at x=0 + ApproachLength;
// the conflict box is the BoxLength past the stop line; past that the car
// has cleared. All mutable state follows the same shard discipline as the
// highway's Car: own step or barrier only.
type icar struct {
	id   int
	road Road
	body vehicle.Body
	// spawnAt is when the car entered the approach (a window edge).
	spawnAt sim.Time
	phase   sim.Time
	shard   int
	// waited accumulates time at (near) standstill.
	waited    sim.Time
	done      bool
	accounted bool
	// lastRx/haveRx are the car's own belief about the physical light in
	// Medium mode: the start instant of the last I-am-alive beacon it
	// received, written at barriers by medium delivery.
	lastRx sim.Time
	haveRx bool
}

// Intersection is the crossing-roads world on the sharded kernel: each
// approach lives in a quadrant of world.QuadrantPartition, vehicles hand
// off between quadrant shards as they cross, and — exactly as in the
// highway — all cross-car state flows through barrier-published snapshots,
// so the outcome is a pure function of (seed, config) at every shard
// count.
//
// The physical traffic light and its virtual backup are modeled as timed
// automata (the paper's timed virtual stationary automata [10, 11]): the
// light's I-am-alive beacons exist on the window grid while the light is
// alive and the channel is not jammed, and the virtual light's replicated
// state is the deterministic machine state anchored at the takeover epoch
// — which is exactly the state a correct leader-elected replica group
// would serve, without simulating the election wire traffic.
type Intersection struct {
	cfg  IntersectionConfig
	sk   *sim.ShardedKernel
	part QuadrantPartition

	// cars holds the live vehicles in id order. Retired (crossed and
	// accounted) cars are compacted out at barriers; slot maps a stable
	// car id to its current position, so snapshot entries and medium
	// deliveries keep O(1) lookups across compactions.
	cars   []*icar
	slot   []int32
	nextID int
	// retiredPending counts cars accounted this barrier and awaiting
	// compaction.
	retiredPending int
	// byShard lists each shard's live cars in (phase, id) order, the order
	// the shard's step loop drives them in. refreshSnapshot rebuilds it at
	// every barrier, so a shard never reads another shard's cars.
	byShard [][]*icar

	arrival     [2]*sim.Stream
	nextArrival [2]sim.Time

	// medium is the slot-level radio for the light's beacons (nil unless
	// cfg.Medium); lightTx draws the light's per-window slot jitter.
	// mEach/mDeliver/mDrop are the Resolve callbacks, built once so the
	// per-window resolution allocates no closures.
	medium   *wireless.ShardedMedium
	lightTx  *sim.Stream
	mEach    func(*wireless.ShardedTx, func(wireless.NodeID, wireless.Position))
	mDeliver func(*wireless.ShardedTx, wireless.NodeID)
	mDrop    func(*wireless.ShardedTx, wireless.NodeID, wireless.DropReason)

	snap     [2][]hwSnap // per road, sorted by (x, id)
	snapEdge sim.Time

	// jams is the history of V2V jam bursts, in time order.
	jams []wireless.Burst

	barrierScheduler

	// Crossed counts vehicles that cleared the box, per road.
	Crossed map[Road]int64
	// Conflicts counts window barriers with vehicles from both roads
	// inside the box — the safety metric that must stay zero.
	Conflicts int64
	// WaitTimes collects per-vehicle waiting durations (s).
	WaitTimes metrics.Histogram
}

// lightNodeID is the physical traffic light's radio identity — below
// firstCarID, so its medium loss stream never collides with a car's.
const lightNodeID = 1

// compactRetirees gates the retired-car compaction. Always on; the
// long-horizon regression test flips it off to prove compaction changes
// no observable output.
var compactRetirees = true

// NewIntersection builds the world over the sharded kernel. The kernel's
// window must equal cfg.ControlPeriod.
func NewIntersection(sk *sim.ShardedKernel, cfg IntersectionConfig) (*Intersection, error) {
	if cfg.ApproachLength <= 0 || cfg.BoxLength <= 0 {
		return nil, fmt.Errorf("world: invalid intersection geometry")
	}
	if cfg.MeanArrival <= 0 || cfg.ControlPeriod <= 0 || cfg.GreenFor <= 0 {
		return nil, fmt.Errorf("world: invalid intersection timing")
	}
	if sk.Window() != cfg.ControlPeriod {
		return nil, fmt.Errorf("world: kernel window %v must equal the control period %v",
			sk.Window(), cfg.ControlPeriod)
	}
	w := &Intersection{
		cfg:     cfg,
		sk:      sk,
		byShard: make([][]*icar, sk.Shards()),
		Crossed: map[Road]int64{},
		// Ids are assigned sequentially from firstCarID, so cars[id-
		// firstCarID] is the O(1) id lookup the incremental snapshot
		// refresh relies on.
		nextID: firstCarID,
	}
	for i, road := range []Road{RoadNS, RoadEW} {
		stream := sim.NewStream(sk.Seed(), int64(road), 7)
		w.arrival[i] = stream
		w.nextArrival[i] = sim.Time(stream.ExpFloat64() * float64(cfg.MeanArrival))
	}
	if cfg.Medium {
		if cfg.Channels < 1 {
			cfg.Channels = 1
			w.cfg.Channels = 1
		}
		mcfg := wireless.DefaultShardedConfig()
		// The light must reach the whole approach plus the box exit.
		mcfg.Range = cfg.ApproachLength + cfg.BoxLength + 60
		mcfg.LossProb = cfg.Loss
		mcfg.Channels = w.cfg.Channels
		w.medium = wireless.NewShardedMedium(sk.Seed(), mcfg)
		w.lightTx = sim.NewStream(sk.Seed(), lightNodeID, 5)
		w.mEach = func(tx *wireless.ShardedTx, visit func(wireless.NodeID, wireless.Position)) {
			for _, c := range w.cars {
				if c.done {
					continue
				}
				visit(wireless.NodeID(c.id), pos2D(c.road, c.body.X, w.cfg.ApproachLength))
			}
		}
		w.mDeliver = func(tx *wireless.ShardedTx, to wireless.NodeID) {
			c := w.carByID(int(to))
			c.lastRx = tx.Start
			c.haveRx = true
		}
		w.mDrop = func(*wireless.ShardedTx, wireless.NodeID, wireless.DropReason) {}
	}
	return w, nil
}

// BuildIntersection creates a sharded kernel with the config's window and
// the world on top. The quadrant geometry yields four spatial shards;
// wider kernels leave shards idle, so the count is clamped to 4.
func BuildIntersection(seed int64, shards int, cfg IntersectionConfig) (*Intersection, error) {
	if shards < 1 {
		shards = 1
	}
	if shards > 4 {
		shards = 4
	}
	if cfg.ControlPeriod <= 0 {
		return nil, fmt.Errorf("world: control period must be positive")
	}
	sk, err := sim.NewShardedKernel(seed, shards, cfg.ControlPeriod)
	if err != nil {
		return nil, err
	}
	return NewIntersection(sk, cfg)
}

// Kernel returns the sharded kernel the world runs on.
func (w *Intersection) Kernel() *sim.ShardedKernel { return w.sk }

// LightAlive reports whether the physical light is transmitting.
func (w *Intersection) LightAlive() bool {
	return w.cfg.LightFailsAt == 0 || w.sk.Now() < w.cfg.LightFailsAt
}

// JamV2V renders the shared channel inaccessible for the next d units of
// virtual time: light beacons are lost and the virtual light's replica
// traffic goes silent. Call at a barrier (Schedule) or while stopped.
func (w *Intersection) JamV2V(d sim.Time) {
	now := w.sk.Now()
	if w.medium != nil {
		w.medium.JamAll(now, d)
	}
	// The jam extends the live last burst or starts a new one; the zero
	// burst standing in for an empty history has ended at every instant.
	var last wireless.Burst
	n := len(w.jams)
	if n > 0 {
		last = w.jams[n-1]
	}
	if last.Extend(now, d) {
		w.jams = append(w.jams, last)
	} else {
		w.jams[n-1] = last
	}
}

// Start registers the shards' step loop and the window hook, and spawns
// the first window's cars.
func (w *Intersection) Start() error {
	w.sk.OnShardWindow(w.stepShard)
	w.sk.OnWindow(w.onWindow)
	w.spawnDue(0)
	w.refreshSnapshot(0)
	return nil
}

// Run advances the world by d (rounded up to whole windows).
func (w *Intersection) Run(d sim.Time) error {
	return w.RunContext(context.Background(), d)
}

// RunContext is Run with cancellation, checked at every window barrier.
func (w *Intersection) RunContext(ctx context.Context, d sim.Time) error {
	return w.sk.Run(ctx, w.sk.Now()+d)
}

// stepShard is the shard's step loop: unless the world is stopped, it
// drives the shard's live cars in (phase, id) order, each at its phase in
// the window.
func (w *Intersection) stepShard(shard int, edge sim.Time) {
	if w.stopped {
		return
	}
	s := w.sk.Shard(shard)
	open := edge - w.cfg.ControlPeriod
	for _, c := range w.byShard[shard] {
		s.Advance(open + c.phase)
		w.drive(c, s)
	}
}

func (w *Intersection) onWindow(edge sim.Time) {
	if w.medium != nil {
		// Deliver the closed window's light beacon before this barrier's
		// scheduled actions: a jam injected at this edge must not reach
		// back into the window that just ended.
		w.resolveMedium(edge)
	}
	w.runPending(edge)
	w.spawnDue(edge)
	w.refreshSnapshot(edge)
	w.account(edge)
	if compactRetirees && w.retiredPending > 0 {
		w.compactRetired()
	}
	w.runHooks(edge)
}

// firstCarID is the id of the first spawned vehicle; ids are sequential.
const firstCarID = 100

// carByID returns the live vehicle with the given id in O(1) through the
// stable id remap (slot grows by one entry per spawn and survives
// compaction; retired ids map to -1 and must not be looked up).
func (w *Intersection) carByID(id int) *icar { return w.cars[w.slot[id-firstCarID]] }

// compactRetired removes retired (done and accounted) cars from the live
// list, remapping the survivors' slots. account and refreshSnapshot then
// scan only live cars — without this, a long-horizon run's barrier cost
// grows with every car ever spawned instead of the cars on the road.
func (w *Intersection) compactRetired() {
	kept := w.cars[:0]
	for _, c := range w.cars {
		if c.done && c.accounted {
			w.slot[c.id-firstCarID] = -1
			continue
		}
		w.slot[c.id-firstCarID] = int32(len(kept))
		kept = append(kept, c)
	}
	for i := len(kept); i < len(w.cars); i++ {
		w.cars[i] = nil
	}
	w.cars = kept
	w.retiredPending = 0
}

// spawnDue creates the arrivals due by edge, in road order — at most one
// per road per window, so two spawns never stack on the same spot.
// Arrival instants are drawn from per-road entity streams and quantized to
// the window grid, so spawning is a barrier-only, shard-invariant act.
func (w *Intersection) spawnDue(edge sim.Time) {
	for i, road := range []Road{RoadNS, RoadEW} {
		if w.nextArrival[i] <= edge {
			id := w.nextID
			w.nextID++
			c := &icar{
				id:      id,
				road:    road,
				body:    vehicle.Body{Speed: 15, Length: 4.5},
				spawnAt: edge,
				phase: 1 + sim.Time(uint64(sim.SplitSeed(w.sk.Seed(), int64(id)*64+4))%
					uint64(w.cfg.ControlPeriod-1)),
			}
			w.slot = append(w.slot, int32(len(w.cars)))
			w.cars = append(w.cars, c)
			// Membership change: the placeholder entry is refreshed (and
			// sorted into place) by refreshSnapshot at this same barrier.
			w.snap[i] = append(w.snap[i], hwSnap{id: id})
			w.nextArrival[i] += sim.Time(w.arrival[i].ExpFloat64() * float64(w.cfg.MeanArrival))
		}
	}
}

// pos2D maps a car's road coordinate into the plane (stop line at origin).
func pos2D(road Road, x float64, approach float64) wireless.Position {
	d := approach - x // distance remaining to the stop line
	if road == RoadNS {
		return wireless.Position{Y: -d}
	}
	return wireless.Position{X: -d}
}

// refreshSnapshot incrementally maintains the per-road snapshots in the
// reused buffers: every live entry is rewritten from its car (retired cars
// compact away, freshly spawned placeholders fill in), quadrant ownership
// is recomputed, and the insertion pass runs only when the refresh
// actually observed an inversion — membership changes (spawn/retire) and
// overtakes are the only ways a road loses its order, so in the steady
// state a road costs one linear pass and no sort at all, never the
// from-scratch rebuild + sort.Slice of the seed. Then it rebuilds the
// shards' step lists from the new ownership.
func (w *Intersection) refreshSnapshot(edge sim.Time) {
	for i := range w.snap {
		entries := w.snap[i]
		kept := entries[:0]
		sorted := true
		for _, e := range entries {
			c := w.carByID(e.id)
			if c.done {
				continue
			}
			p := pos2D(c.road, c.body.X, w.cfg.ApproachLength)
			c.shard = w.part.ShardOf(p.X, p.Y) % w.sk.Shards()
			e = hwSnap{id: c.id, x: c.body.X, speed: c.body.Speed, length: c.body.Length}
			if n := len(kept); n > 0 && snapLess(e, kept[n-1]) {
				sorted = false
			}
			kept = append(kept, e)
		}
		if !sorted {
			insertionSortSnaps(kept)
		}
		w.snap[i] = kept
	}
	w.snapEdge = edge
	for i := range w.byShard {
		w.byShard[i] = w.byShard[i][:0]
	}
	for _, c := range w.cars {
		if !c.done {
			w.byShard[c.shard] = append(w.byShard[c.shard], c)
		}
	}
	for _, list := range w.byShard {
		slices.SortFunc(list, func(a, b *icar) int {
			return cmp.Or(cmp.Compare(a.phase, b.phase), cmp.Compare(a.id, b.id))
		})
	}
}

// account retires crossed cars and samples the conflict box, in id order.
func (w *Intersection) account(edge sim.Time) {
	inBox := map[Road]bool{}
	stopLine := w.cfg.ApproachLength
	for _, c := range w.cars {
		if c.done && !c.accounted {
			c.accounted = true
			w.retiredPending++
			w.Crossed[c.road]++
			w.WaitTimes.Observe(c.waited.Seconds())
		}
		if c.done {
			continue
		}
		front := c.body.X
		rear := c.body.X - c.body.Length
		if front > stopLine && rear < stopLine+w.cfg.BoxLength {
			inBox[c.road] = true
		}
	}
	if inBox[RoadNS] && inBox[RoadEW] {
		w.Conflicts++
	}
}

// resolveMedium queues the light's I-am-alive beacon for the window that
// just closed and resolves the medium: every live car that existed during
// the window is a candidate receiver at its current plane position, and a
// delivery updates that car's own liveness belief. The light transmits
// once per window while alive, at a slot drawn from its own entity
// stream — all barrier work, so the outcome is width-invariant.
func (w *Intersection) resolveMedium(edge sim.Time) {
	open := edge - w.cfg.ControlPeriod
	start := open + sim.Time(w.lightTx.Int63n(int64(w.cfg.ControlPeriod/4)+1))
	if lim := edge - w.medium.Config().Airtime; start > lim {
		start = lim
	}
	if w.cfg.LightFailsAt == 0 || start < w.cfg.LightFailsAt {
		w.medium.Queue(wireless.ShardedTx{From: lightNodeID, Start: start})
	}
	w.medium.Resolve(w.mEach, w.mDeliver, w.mDrop)
}

// lastLightRx returns the instant of the last I-am-alive beacon the car
// received: beacons exist on the window grid while the light is alive and
// the channel is not jammed, and the car must already have spawned.
func (w *Intersection) lastLightRx(c *icar, now sim.Time) (sim.Time, bool) {
	p := w.cfg.ControlPeriod
	t := now / p * p
	if w.cfg.LightFailsAt > 0 && t >= w.cfg.LightFailsAt {
		t = (w.cfg.LightFailsAt - 1) / p * p
	}
	// Step out of any jam bursts (latest first; the list is short).
	for i := len(w.jams) - 1; i >= 0; i-- {
		if t >= w.jams[i].Until {
			break
		}
		if t >= w.jams[i].Start {
			t = (w.jams[i].Start - 1) / p * p
		}
	}
	if t < p || t < c.spawnAt {
		return 0, false
	}
	return t, true
}

// lightStateAt returns the physical light's phase at t (the machine runs
// autonomously from the world's start).
func (w *Intersection) lightStateAt(t sim.Time) coord.LightState {
	machine := coord.TrafficLightMachine{GreenFor: w.cfg.GreenFor}
	st, _ := machine.Advance(coord.LightState{Phase: coord.PhaseNSGreen, Remaining: w.cfg.GreenFor}, t).(coord.LightState)
	return st
}

// vEpoch is the instant the virtual traffic light's state becomes
// trustworthy: the physical light died, every pre-failure car's guard has
// drained, and the replica group has had a leader-election round.
func (w *Intersection) vEpoch() (sim.Time, bool) {
	if !w.cfg.VirtualBackup || w.cfg.LightFailsAt == 0 {
		return 0, false
	}
	return w.cfg.LightFailsAt + w.cfg.AliveTimeout + w.cfg.HandoverGuard, true
}

// virtualLive reports whether the virtual light is serving state at now:
// past the takeover epoch and not silenced by an inaccessibility burst
// (during a jam the replicas stay consistent for one leader timeout, then
// the automaton is unavailable until the channel returns and the election
// re-stabilizes).
func (w *Intersection) virtualLive(now sim.Time) bool {
	epoch, ok := w.vEpoch()
	if !ok || now < epoch {
		return false
	}
	for i := len(w.jams) - 1; i >= 0; i-- {
		j := w.jams[i]
		if now >= j.Start+vLeaderTimeout && now < j.Until+vReestablish {
			return false
		}
		if now >= j.Until+vReestablish {
			break
		}
	}
	return true
}

// virtualStateAt returns the virtual light's replicated state at t.
func (w *Intersection) virtualStateAt(t sim.Time) coord.LightState {
	epoch, _ := w.vEpoch()
	machine := coord.TrafficLightMachine{GreenFor: w.cfg.GreenFor}
	st, _ := machine.Advance(machine.Init(), t-epoch).(coord.LightState)
	return st
}

// authority returns c's current belief about the light state and whether
// any control authority exists.
func (w *Intersection) authority(c *icar, now sim.Time) (coord.LightState, bool) {
	var lastRx sim.Time
	var have bool
	if w.medium != nil {
		// Medium mode: the belief is the car's own radio history.
		lastRx, have = c.lastRx, c.haveRx
	} else {
		lastRx, have = w.lastLightRx(c, now)
	}
	physicalFresh := have && now-lastRx <= w.cfg.AliveTimeout
	// Handover guard: a car that once obeyed the physical light holds an
	// all-red belief until the guard expires, so its possibly stale green
	// can never coexist with the virtual light's unsynchronized phase.
	inGuard := have && !physicalFresh && now-lastRx <= w.cfg.AliveTimeout+w.cfg.HandoverGuard
	switch {
	case physicalFresh:
		return w.lightStateAt(now), true
	case inGuard:
		return coord.LightState{}, false
	case w.virtualLive(now):
		return w.virtualStateAt(now), true
	default:
		// Light dead, no (live) backup: fail safe — nobody enters. (Human
		// drivers would negotiate; an autonomous system must not guess.)
		return coord.LightState{}, false
	}
}

// mayEnter reports whether c may cross the stop line now: its road must be
// green AND the remaining green must cover the time it needs to clear the
// conflict box (the clearance rule a yellow phase implements in reality).
func (w *Intersection) mayEnter(c *icar, now sim.Time) bool {
	st, ok := w.authority(c, now)
	if !ok {
		return false
	}
	green := (c.road == RoadNS && st.Phase == coord.PhaseNSGreen) ||
		(c.road == RoadEW && st.Phase == coord.PhaseEWGreen)
	if !green {
		return false
	}
	distToClear := (w.cfg.ApproachLength + w.cfg.BoxLength + c.body.Length) - c.body.X
	needed := sim.FromSeconds(timeToCover(c.body.Speed, distToClear) + 1.0)
	return st.Remaining > needed
}

// Crossing dynamics shared by the entry estimate and the actual drive.
const (
	crossAccel = 2.5 // m/s^2
	crossSpeed = 15  // m/s
)

// timeToCover returns the time to cover dist starting at speed v, with
// acceleration crossAccel capped at crossSpeed — the exact kinematics the
// drive loop applies, so the clearance estimate cannot be optimistic.
func timeToCover(v, dist float64) float64 {
	if dist <= 0 {
		return 0
	}
	if v >= crossSpeed {
		return dist / crossSpeed
	}
	// Accelerate until crossSpeed or until the distance is covered.
	tAcc := (crossSpeed - v) / crossAccel
	dAcc := v*tAcc + 0.5*crossAccel*tAcc*tAcc
	if dAcc >= dist {
		// dist = v t + a/2 t^2 → t = (-v + sqrt(v^2 + 2 a d)) / a
		return (-v + math.Sqrt(v*v+2*crossAccel*dist)) / crossAccel
	}
	return tAcc + (dist-dAcc)/crossSpeed
}

// drive advances one live car: approach, stop at the line on red, cross
// on green, clear. It runs on the owning shard and touches only c plus
// the immutable snapshot.
func (w *Intersection) drive(c *icar, shard *sim.Shard) {
	now := shard.Now()
	dt := w.cfg.ControlPeriod.Seconds()
	stopLine := w.cfg.ApproachLength
	pastLine := c.body.X - stopLine // >0 once inside the box

	switch {
	case pastLine >= 0:
		// Committed: clear the box briskly.
		c.body.Accel = crossAccel
		if c.body.Speed > crossSpeed {
			c.body.Accel = 0
		}
	case w.mayEnter(c, now) && w.gapAhead(c, now) > 8:
		c.body.Accel = crossAccel
		if c.body.Speed > crossSpeed {
			c.body.Accel = 0
		}
	default:
		// Decelerate to stop exactly at the line (or behind the car
		// ahead).
		target := stopLine - 1
		if g := w.gapAhead(c, now); g < target-c.body.X {
			target = c.body.X + g - 2
		}
		remaining := target - c.body.X
		if remaining <= 0.5 {
			c.body.Accel = -6
		} else {
			// v^2 = 2 a s: brake to stop within the remaining distance.
			need := c.body.Speed * c.body.Speed / (2 * remaining)
			if need > 0.5 {
				c.body.Accel = -need
			} else {
				c.body.Accel = 0.5 // creep forward
			}
		}
	}
	if c.body.Speed < 0.5 {
		c.waited += w.cfg.ControlPeriod
	}
	c.body.Step(dt)

	if c.body.X >= stopLine+w.cfg.BoxLength+c.body.Length {
		c.done = true // retired (and accounted) at the next barrier
	}
}

// gapAhead returns the distance to the rear bumper of the nearest car
// ahead on the same road (a large number when free), from the snapshot
// with positions extrapolated to now.
func (w *Intersection) gapAhead(c *icar, now sim.Time) float64 {
	snap := w.snap[int(c.road-RoadNS)]
	n := len(snap)
	if n == 0 {
		return math.MaxFloat64
	}
	dt := (now - w.snapEdge).Seconds()
	x := c.body.X
	at := sort.Search(n, func(i int) bool { return snap[i].x > x })
	for i := at; i < n; i++ {
		e := &snap[i]
		if e.id == c.id {
			continue
		}
		if d := (e.x + e.speed*dt) - e.length - x; d > 0 {
			return d
		}
	}
	return math.MaxFloat64
}

// ActiveCars returns how many cars are still approaching or crossing.
func (w *Intersection) ActiveCars() int {
	n := 0
	for _, c := range w.cars {
		if !c.done {
			n++
		}
	}
	return n
}
