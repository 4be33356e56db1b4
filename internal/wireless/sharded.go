package wireless

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"karyon/internal/sim"
)

// ShardedMedium is the slot-level broadcast radio for the partitioned
// worlds (internal/world). The classic Medium cannot run there: it draws
// loss from the kernel's rng and decides collisions from a live global
// transmission set, both of which depend on event interleaving — exactly
// what a shard-count-invariant model must not depend on. The sharded
// medium keeps the same physics (airtime occupancy, overlap collisions,
// carrier sense, jam windows) but restructures *when* and *from what* the
// decisions are made:
//
//   - A transmission is described, not performed, when the sender steps:
//     the sender builds its ShardedTx, and the closing window barrier
//     queues it (the same conservative-lookahead discipline as the
//     worlds' beacon fan-out). Cross-arc frames therefore wait for the
//     barrier like every other frame, and the queue order cannot show.
//   - Resolution runs at the barrier over the whole window's frame set,
//     sorted by (start, sender): airtime overlap, carrier sense, jam
//     overlap and range are pure interval/geometry functions of that set,
//     so the outcome is a pure function of (seed, config) — byte-identical
//     at every shard width. It has two passes. The contention pass
//     (Contend) is serial, because carrier sense depends on order; it
//     fixes the on-air set. The visit pass (Visit) then decides every
//     (frame, receiver) pair and may run once per receiver partition, in
//     parallel: each outcome depends only on the on-air set, the jam
//     state and the receiver's own loss stream.
//   - Every stochastic decision comes from sim.SplitSeed per-entity
//     streams: the sender's slot jitter is drawn by the sending entity
//     (from its own stream, on its own shard), and per-receiver loss is
//     drawn from a per-receiver stream owned by the medium and consumed
//     only at barriers, in frame order. Per-receiver streams make the
//     receiver *visit* order irrelevant: each receiver consumes exactly
//     one draw per lossy frame regardless of who else is visited.
//
// The medium knows two geometries (ShardedConfig.Ring): the Euclidean
// plane of the intersection and the arc distance of a ring highway, whose
// wrap seam casts no radio shadow.
// All methods are barrier-only and single-threaded, except that Visit may
// run concurrently for distinct partitions; the in-window half of a
// transmission is just building the ShardedTx value.
type ShardedMedium struct {
	seed int64
	cfg  ShardedConfig

	pending []ShardedTx
	// onAir indexes the frames the contention pass put on air, in start
	// order: scratch reused across barriers.
	onAir []int
	// keys is the contention pass's sort scratch: one key per pending
	// frame, reused across barriers.
	keys []txKey

	// parts holds one visit context per receiver partition; the first
	// nparts are in use between Contend and Settle. Built once and reused,
	// so resolution allocates nothing in the steady state.
	parts  []*visitPart
	nparts int

	// jams holds the current (or last) jam burst per channel — the same
	// single-burst model as Medium. Frames are resolved at the barrier
	// closing their window and jams are injected at barriers, so no frame
	// ever needs a burst older than the current one.
	jams []Burst

	// rx holds the per-receiver loss streams, indexed by node id: one
	// dense slice of one-word generators, so a visit's loss draw is an
	// indexed read-modify-write, not a pointer chase to a heap stream.
	// live[id] marks the streams created so far, at the receiver's first
	// draw (or Prime); only those reach a checkpoint. A partitioned visit
	// creates streams in place, so both tables are sized beforehand by
	// Reserve.
	rx    []sim.Source
	live  []bool
	stats ShardedStats
}

// ShardedConfig parameterizes a ShardedMedium.
type ShardedConfig struct {
	// Range is the radio range in meters (under the Ring metric).
	Range float64
	// Airtime is how long one frame occupies its channel.
	Airtime sim.Time
	// LossProb is the independent per-receiver frame loss probability,
	// drawn from the receiver's own SplitSeed stream.
	LossProb float64
	// Channels is the number of orthogonal channels (≥1). A channel
	// partitions airtime — collisions and jams are per-channel — not the
	// audience: receivers are wideband and hear every channel.
	Channels int
	// CarrierSense makes a sender defer (skip) a frame whose start instant
	// falls inside another audible transmission's airtime or a jam burst —
	// listen-before-talk with the frame dropped at the sender, which is how
	// CSMA converts most would-be collisions into deferrals. Simultaneous
	// starts remain undetectable (the CSMA vulnerability window) and
	// collide.
	CarrierSense bool
	// Ring selects the metric. Above 0 it is the length of a ring, and
	// distance is arc length along X (Y and Z are ignored), so the wrap
	// seam casts no radio shadow; the metric's domain is 0 ≤ X < Ring.
	// Otherwise it is the Euclidean plane, whose domain is finite
	// coordinates of magnitude below 1e9 m. The collision prefilter
	// relies on the triangle inequality, which holds inside the domain; a
	// frame or receiver outside it is decided by a full scan.
	Ring float64
}

// DefaultShardedConfig mirrors DefaultConfig: a short 802.11p-class frame.
func DefaultShardedConfig() ShardedConfig {
	return ShardedConfig{
		Range:    300,
		Airtime:  400 * sim.Microsecond,
		Channels: 1,
	}
}

// ShardedTx is one frame queued for barrier resolution. The sender builds
// it during its own event (drawing any slot jitter from its own entity
// stream), and the barrier that closes its window queues it.
type ShardedTx struct {
	From    NodeID
	Channel int
	// Pos is the sender's position at send time, in the coordinates of
	// the configured metric (see ShardedConfig.Ring).
	Pos Position
	// Start is when the frame's airtime begins. The sending world keeps it
	// inside the frame's window (clamping against the closing edge), so a
	// window's frame set is complete when its barrier resolves.
	Start sim.Time
	// Retry, when non-zero, is the latest start instant the sender will
	// accept for this frame. A carrier-sense deferral then re-contends at
	// the instant the sensed occupancy clears instead of dropping — CSMA
	// backoff showing up as latency rather than loss. Zero keeps the
	// legacy defer-means-drop behavior. The sending world sets it to the
	// last in-window start (edge − airtime) so retries never leak across
	// the barrier.
	Retry   sim.Time
	Payload any
}

// end returns one past the frame's airtime window.
func (tx *ShardedTx) end(airtime sim.Time) sim.Time { return tx.Start + airtime }

// ShardedStats aggregates delivery accounting. Queued counts frames
// handed to the medium; Sent counts frames that actually went on air
// (Queued minus carrier-sense deferrals); the per-receiver outcomes sum
// across receivers, so Delivered+Collisions+Losses+Jammed+OutOfRange is
// the number of (frame, receiver) pairs visited.
type ShardedStats struct {
	Queued     int64
	Sent       int64
	Deferred   int64
	Delivered  int64
	Collisions int64
	Losses     int64
	Jammed     int64
	OutOfRange int64
	// Retries counts carrier-sense re-contentions (frames that sensed a
	// busy channel and moved their start later within the same window).
	Retries int64
}

// DeliveryRatio returns delivered over in-range delivery attempts —
// the one definition every report shares. Out-of-range visits are not
// attempts (the frame never reached that receiver's neighborhood), and
// carrier-sense deferrals never put a frame on air.
func (s ShardedStats) DeliveryRatio() float64 {
	attempts := s.Delivered + s.Collisions + s.Losses + s.Jammed
	if attempts == 0 {
		return 0
	}
	return float64(s.Delivered) / float64(attempts)
}

// shardedLossDim is the SplitSeed stream dimension for per-receiver loss
// draws — distinct from the entity dimensions the worlds consume (sensor
// transducers 0-2, legacy beacon rx 3, slot jitter 5).
const shardedLossDim = 6

// NewShardedMedium creates a medium. Channels below 1 are clamped to 1.
func NewShardedMedium(seed int64, cfg ShardedConfig) *ShardedMedium {
	if cfg.Channels < 1 {
		cfg.Channels = 1
	}
	if cfg.Airtime <= 0 {
		cfg.Airtime = DefaultShardedConfig().Airtime
	}
	return &ShardedMedium{
		seed: seed,
		cfg:  cfg,
		jams: make([]Burst, cfg.Channels),
	}
}

// Config returns the medium configuration (with clamps applied).
func (m *ShardedMedium) Config() ShardedConfig { return m.cfg }

// Stats returns a copy of the delivery accounting so far.
func (m *ShardedMedium) Stats() ShardedStats { return m.stats }

// Queue hands one frame to the medium for resolution at the next barrier.
// Barrier-only: call it at the barrier that closes the frame's window.
func (m *ShardedMedium) Queue(tx ShardedTx) {
	if tx.Channel < 0 || tx.Channel >= m.cfg.Channels {
		panic(fmt.Sprintf("wireless: queued frame on unknown channel %d of %d", tx.Channel, m.cfg.Channels))
	}
	m.pending = append(m.pending, tx)
	m.stats.Queued++
}

// Jam marks channel as jammed for the next d units of virtual time from
// now, extending any ongoing burst. Barrier-only.
func (m *ShardedMedium) Jam(channel int, now, d sim.Time) {
	if channel < 0 || channel >= m.cfg.Channels {
		return
	}
	m.jams[channel].Extend(now, d)
}

// JamAll jams every channel — the external wideband interference that
// produces the paper's network-inaccessibility periods.
func (m *ShardedMedium) JamAll(now, d sim.Time) {
	for c := 0; c < m.cfg.Channels; c++ {
		m.Jam(c, now, d)
	}
}

// Jammed reports whether channel is jammed at instant t.
func (m *ShardedMedium) Jammed(channel int, t sim.Time) bool {
	if channel < 0 || channel >= m.cfg.Channels {
		return false
	}
	return m.jams[channel].Covers(t)
}

// dist is the metric of ShardedConfig.Ring: arc length along X on a ring
// of that length, or the Euclidean distance (Position.Distance, bit for
// bit). It is a function of the ring length rather than a method so the
// compiler inlines it into the collision loops.
func dist(ring float64, a, b *Position) float64 {
	d := math.Abs(a.X - b.X)
	if ring > 0 {
		if d > ring/2 {
			d = ring - d
		}
		return d
	}
	dy, dz := a.Y-b.Y, a.Z-b.Z
	return math.Sqrt(d*d + dy*dy + dz*dz)
}

// maxCoord bounds the metric domain: below it, float rounding in the
// distances stays far under the collision prefilter's 1 m slack.
const maxCoord = 1e9

// inDomain reports whether p lies in the domain of the metric of ring,
// where distances are finite and obey the triangle inequality up to
// rounding. NaN is outside every domain.
func inDomain(ring float64, p *Position) bool {
	if ring > 0 {
		return p.X >= 0 && p.X < ring && p.X < maxCoord
	}
	return max(math.Abs(p.X), math.Abs(p.Y), math.Abs(p.Z)) < maxCoord
}

// airtimesOverlap reports whether two frames' airtime windows intersect.
func airtimesOverlap(a, b *ShardedTx, airtime sim.Time) bool {
	return a.Start < b.end(airtime) && b.Start < a.end(airtime)
}

// rxStream returns the receiver's loss stream, creating it on first use.
// Streams are keyed by entity id and derived from SplitSeed, so creation
// order — and therefore shard layout — cannot perturb the draws. Only a
// serial caller may grow the table; a partitioned visit finds it sized by
// Reserve. The pointer is valid until the table next grows.
func (m *ShardedMedium) rxStream(id NodeID) *sim.Source {
	if int(id) >= len(m.rx) {
		if m.nparts > 1 {
			panic(fmt.Sprintf("wireless: receiver %d outside the %d reserved loss streams in a partitioned visit", id, len(m.rx)))
		}
		m.Reserve(int(id) + 1)
	}
	if !m.live[id] {
		m.rx[id] = sim.NewSource(m.seed, int64(id), shardedLossDim)
		m.live[id] = true
	}
	return &m.rx[id]
}

// Reserve sizes the loss-stream table for node ids below n without
// creating any stream. A caller that visits receivers in several
// partitions reserves every id it will visit first.
func (m *ShardedMedium) Reserve(n int) {
	if n > len(m.rx) {
		m.rx = append(m.rx, make([]sim.Source, n-len(m.rx))...)
		m.live = append(m.live, make([]bool, n-len(m.live))...)
	}
}

// Prime pre-creates the loss streams for a contiguous id range at their
// deterministic initial state. A record/replay checkpoint restore primes
// every receiver first, so State finds a stream for each node the
// checkpoint names.
func (m *ShardedMedium) Prime(first, last NodeID) {
	for id := first; id <= last; id++ {
		m.rxStream(id)
	}
}

// Resolve decides every queued frame's fate in deterministic (start,
// sender) order and clears the queue: Contend, one Visit, and Settle, for
// a caller that visits every receiver itself. Single-threaded barrier
// work.
//
// each is invoked once per frame that goes on air (carrier-sense deferrals
// are reported through drop with to == tx.From and DropBusy, and skip
// each entirely); it must visit the frame's candidate receivers with their
// positions — typically by walking the world's immutable snapshot. Range
// is re-checked here, so visiting a superset is fine. For every visited
// receiver other than the sender exactly one of deliver or drop fires,
// with the same outcome ladder as Medium.complete: range, jam, collision,
// loss, delivery. All three callbacks are required.
func (m *ShardedMedium) Resolve(
	each func(tx *ShardedTx, visit func(to NodeID, pos Position)),
	deliver func(tx *ShardedTx, to NodeID),
	drop func(tx *ShardedTx, to NodeID, reason DropReason),
) {
	if len(m.pending) == 0 {
		return
	}
	m.Contend(1, drop)
	m.Visit(0, each, deliver, drop)
	m.Settle()
}

// Contend is the serial half of resolution: it sorts the queued frames
// into (start, sender) order and runs carrier sense, which fixes the set
// of frames that go on air. Deferrals are reported through drop with
// to == tx.From and DropBusy. parts is the number of receiver partitions
// the visit pass will run in (at least 1); every one of them must then be
// visited exactly once before Settle.
func (m *ShardedMedium) Contend(parts int, drop func(tx *ShardedTx, to NodeID, reason DropReason)) {
	if parts < 1 {
		parts = 1
	}
	for len(m.parts) < parts {
		vp := &visitPart{m: m}
		vp.visit = vp.decide
		m.parts = append(m.parts, vp)
	}
	m.nparts = parts
	m.sortPending()

	// Carrier-sense pass, in start order: a frame defers when its start
	// instant lies inside an already-on-air audible frame on its channel
	// (strictly earlier start: a simultaneous start is not yet detectable)
	// or inside a jam burst. A deferred frame with a Retry deadline moves
	// its start to the instant the sensed occupancy clears and re-enters
	// contention in sorted order (so later frames sense it correctly);
	// otherwise — deadline exhausted or none set — it is dropped at the
	// sender. Deferred frames never occupy airtime, so they cannot collide
	// with later frames: the pass is order-dependent front-to-back, which
	// is exactly the deterministic order above.
	onAir := m.onAir[:0]
	for i := 0; i < len(m.pending); i++ {
		tx := &m.pending[i]
		if m.cfg.CarrierSense {
			if clearAt, busy := m.senseClears(tx, onAir); busy {
				if tx.Retry > 0 && clearAt <= tx.Retry {
					m.stats.Retries++
					moved := *tx
					moved.Start = clearAt
					m.reinsert(i, moved)
					continue
				}
				m.stats.Deferred++
				drop(tx, tx.From, DropBusy)
				continue
			}
		}
		onAir = append(onAir, i)
	}
	m.onAir = onAir
	m.stats.Sent += int64(len(onAir))
}

// Visit is the visit pass for receiver partition part, after Contend: it
// hands every on-air frame, in on-air order, to each, which visits the
// partition's candidate receivers. Visits of distinct partitions may run
// concurrently, provided each partition's callbacks touch only that
// partition's receivers and the ids were reserved (Reserve). Outcomes are
// counted per partition and added to Stats by Settle.
func (m *ShardedMedium) Visit(
	part int,
	each func(tx *ShardedTx, visit func(to NodeID, pos Position)),
	deliver func(tx *ShardedTx, to NodeID),
	drop func(tx *ShardedTx, to NodeID, reason DropReason),
) {
	vp := m.parts[part]
	vp.deliver, vp.drop = deliver, drop
	for at, i := range m.onAir {
		vp.tx, vp.at = &m.pending[i], at
		vp.jammed = m.jams[vp.tx.Channel].Overlaps(vp.tx.Start, vp.tx.end(m.cfg.Airtime))
		vp.nearBuilt = false
		each(vp.tx, vp.visit)
	}
	// Unpin the caller's callbacks (and the last frame) between barriers.
	vp.tx, vp.deliver, vp.drop = nil, nil, nil
}

// Settle ends a resolution: it adds the partitions' outcome counts to
// Stats in partition order and clears the queue.
func (m *ShardedMedium) Settle() {
	for _, vp := range m.parts[:m.nparts] {
		m.stats.Delivered += vp.stats.Delivered
		m.stats.Collisions += vp.stats.Collisions
		m.stats.Losses += vp.stats.Losses
		m.stats.Jammed += vp.stats.Jammed
		m.stats.OutOfRange += vp.stats.OutOfRange
		vp.stats = ShardedStats{}
	}
	m.nparts = 0
	m.pending = m.pending[:0]
}

// visitPart is one receiver partition's visit context: the frame being
// decided, its interferer list, the caller's outcome callbacks, and the
// partition's outcome counts. visit is its decide method, bound once, so
// the closure a caller's each callback receives is never rebuilt per
// frame.
type visitPart struct {
	m      *ShardedMedium
	tx     *ShardedTx
	at     int
	jammed bool
	// near holds the positions of the frame's possible interferers (see
	// buildNear), built on the frame's first collision check; scratch
	// reused across frames. full means the frame's sender lies outside
	// the metric domain, so every check scans the whole on-air set.
	near      []Position
	nearBuilt bool
	full      bool
	deliver   func(tx *ShardedTx, to NodeID)
	drop      func(tx *ShardedTx, to NodeID, reason DropReason)
	visit     func(to NodeID, pos Position)
	stats     ShardedStats
}

// decide runs the outcome ladder for the current frame at one receiver:
// range, jam, collision, loss, delivery.
func (vp *visitPart) decide(to NodeID, pos Position) {
	m, tx := vp.m, vp.tx
	if to == tx.From {
		return
	}
	switch {
	case dist(m.cfg.Ring, &tx.Pos, &pos) > m.cfg.Range:
		vp.stats.OutOfRange++
		vp.drop(tx, to, DropOutOfRange)
	case vp.jammed:
		vp.stats.Jammed++
		vp.drop(tx, to, DropJam)
	case vp.collides(pos):
		vp.stats.Collisions++
		vp.drop(tx, to, DropCollision)
	case m.cfg.LossProb > 0 && m.rxStream(to).Float64() < m.cfg.LossProb:
		vp.stats.Losses++
		vp.drop(tx, to, DropLoss)
	default:
		vp.stats.Delivered++
		vp.deliver(tx, to)
	}
}

// collides reports whether the current frame collides at a receiver at
// pos, which is in range of its sender. A receiver inside the metric
// domain needs only the frame's near list; one outside it (or a frame
// whose sender is) gets the full scan, where the triangle inequality the
// list rests on may not hold.
func (vp *visitPart) collides(pos Position) bool {
	m := vp.m
	if !vp.nearBuilt {
		vp.buildNear()
	}
	ring, r := m.cfg.Ring, m.cfg.Range
	if vp.full || !inDomain(ring, &pos) {
		return m.collides(vp.tx, vp.at, pos)
	}
	for k := range vp.near {
		if dist(ring, &vp.near[k], &pos) <= r {
			return true
		}
	}
	return false
}

// buildNear collects the current frame's possible interferers: the on-air
// frames on its channel whose airtime overlaps it and that lie within
// 2·Range + 1 m of its sender, or outside the metric domain. It is exact
// by the triangle inequality: a receiver in range lies within Range of
// the sender, so a frame more than 2·Range from the sender cannot reach
// it. The metre of slack absorbs float rounding, and the !(d > limit)
// form keeps NaN distances.
func (vp *visitPart) buildNear() {
	m, tx := vp.m, vp.tx
	vp.nearBuilt = true
	vp.near = vp.near[:0]
	ring := m.cfg.Ring
	vp.full = !inDomain(ring, &tx.Pos)
	if vp.full {
		return
	}
	lo, hi := m.overlapping(vp.at)
	limit := 2*m.cfg.Range + 1
	for k := lo; k < hi; k++ {
		o := &m.pending[m.onAir[k]]
		if k == vp.at || o.Channel != tx.Channel {
			continue
		}
		if !(dist(ring, &o.Pos, &tx.Pos) > limit) || !inDomain(ring, &o.Pos) {
			vp.near = append(vp.near, o.Pos)
		}
	}
}

// txKey is a pending frame's sort key: its (Start, From) and its queue
// index, which makes every key unique.
type txKey struct {
	start sim.Time
	from  NodeID
	i     int
}

// sortPending orders the pending frames by (Start, From), the order
// Resolve decides frames in, keeping queue order among equal keys. It
// sorts small keys rather than the frames, then permutes the frames into
// place cycle by cycle, so no second frame buffer is needed.
func (m *ShardedMedium) sortPending() {
	keys := m.keys[:0]
	for i := range m.pending {
		tx := &m.pending[i]
		keys = append(keys, txKey{tx.Start, tx.From, i})
	}
	m.keys = keys
	slices.SortFunc(keys, func(a, b txKey) int {
		if c := cmp.Compare(a.start, b.start); c != 0 {
			return c
		}
		if c := cmp.Compare(a.from, b.from); c != 0 {
			return c
		}
		return cmp.Compare(a.i, b.i)
	})
	// Slot k takes the frame queued at keys[k].i. Each cycle is walked
	// once, marking every slot it fills with keys[j].i = j.
	for k := range keys {
		if keys[k].i == k {
			continue
		}
		first := m.pending[k]
		j := k
		for {
			src := keys[j].i
			keys[j].i = j
			if src == k {
				m.pending[j] = first
				break
			}
			m.pending[j] = m.pending[src]
			j = src
		}
	}
}

// reinsert places a retried frame (whose Start moved later) back into the
// unprocessed tail of pending at its sorted position. i is the slot the
// frame was popped from; positions ≤ i (including accepted on-air indices)
// are untouched, so the contention loop's bookkeeping stays valid. The
// retried start strictly exceeds the old one, so the loop terminates.
func (m *ShardedMedium) reinsert(i int, moved ShardedTx) {
	rest := m.pending[i+1:]
	at := sort.Search(len(rest), func(k int) bool {
		if rest[k].Start != moved.Start {
			return rest[k].Start > moved.Start
		}
		return rest[k].From > moved.From
	})
	copy(m.pending[i:], rest[:at])
	m.pending[i+at] = moved
}

// senseClears reports whether tx's sender hears energy at tx.Start and, if
// so, the earliest instant the currently sensed occupancy clears (for
// retry-within-window). Only occupancy audible at tx.Start counts; a retry
// re-contends against whatever is on air then.
func (m *ShardedMedium) senseClears(tx *ShardedTx, onAir []int) (sim.Time, bool) {
	var clearAt sim.Time
	busy := false
	if m.Jammed(tx.Channel, tx.Start) {
		busy = true
		clearAt = m.jams[tx.Channel].Until
	}
	// onAir is in start order and airtime is uniform, so ends are ordered
	// too: scan back from the tail and stop at the first frame that ended
	// before tx started.
	for k := len(onAir) - 1; k >= 0; k-- {
		o := &m.pending[onAir[k]]
		end := o.end(m.cfg.Airtime)
		if end <= tx.Start {
			break
		}
		if o.Start >= tx.Start || o.Channel != tx.Channel || o.From == tx.From {
			continue
		}
		if dist(m.cfg.Ring, &o.Pos, &tx.Pos) <= m.cfg.Range {
			busy = true
			if end > clearAt {
				clearAt = end
			}
		}
	}
	return clearAt, busy
}

// overlapping returns the run onAir[lo:hi] of on-air frames whose
// airtime overlaps that of the frame at onAir[at], that frame included.
// onAir is sorted by start, and with a uniform airtime only frames whose
// start lies within one airtime of the frame's can overlap, so the run is
// a local neighbourhood of at rather than the whole window.
func (m *ShardedMedium) overlapping(at int) (lo, hi int) {
	onAir, air := m.onAir, m.cfg.Airtime
	tx := &m.pending[onAir[at]]
	lo, hi = at, at+1
	for lo > 0 && m.pending[onAir[lo-1]].end(air) > tx.Start {
		lo--
	}
	for hi < len(onAir) && m.pending[onAir[hi]].Start < tx.end(air) {
		hi++
	}
	return lo, hi
}

// collides reports whether another on-air frame on the same channel
// overlapped tx's airtime audibly at the receiver position — the same
// predicate as Medium.collides, evaluated over the window's frame set by
// a full scan of the overlapping run. at is tx's position in onAir (the
// Visit loop index).
func (m *ShardedMedium) collides(tx *ShardedTx, at int, rxPos Position) bool {
	lo, hi := m.overlapping(at)
	for k := lo; k < hi; k++ {
		o := &m.pending[m.onAir[k]]
		if k != at && o.Channel == tx.Channel && dist(m.cfg.Ring, &o.Pos, &rxPos) <= m.cfg.Range {
			return true
		}
	}
	return false
}
