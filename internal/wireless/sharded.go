package wireless

import (
	"cmp"
	"fmt"
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
//   - A transmission is described, not performed, when the sender's event
//     runs: the owning shard routes the ShardedTx through its mailbox to
//     the closing window barrier (one Send per frame, addressed to the
//     sending shard itself — the same conservative-lookahead discipline as
//     the worlds' beacon fan-out). Cross-arc frames therefore travel as
//     barrier mailbox messages, drained in deterministic (edge, sender)
//     order.
//   - Resolve runs single-threaded at the barrier over the whole window's
//     frame set, sorted by (start, sender): airtime overlap, carrier
//     sense, jam overlap and range are pure interval/geometry functions of
//     that set, so the outcome is a pure function of (seed, config) —
//     byte-identical at every shard width.
//   - Every stochastic decision comes from sim.SplitSeed per-entity
//     streams: the sender's slot jitter is drawn by the sending entity
//     (from its own stream, on its own shard), and per-receiver loss is
//     drawn from a per-receiver stream owned by the medium and consumed
//     only at barriers, in frame order. Per-receiver streams make the
//     receiver *visit* order irrelevant: each receiver consumes exactly
//     one draw per lossy frame regardless of who else is visited.
//
// The medium is geometry-agnostic: positions are opaque to it except
// through the configured distance function, so a ring highway supplies
// arc distance and the intersection plane supplies the Euclidean default.
// All methods are barrier-only (single-threaded); the in-window half of a
// transmission is just building the ShardedTx value.
type ShardedMedium struct {
	seed int64
	cfg  ShardedConfig

	pending []ShardedTx
	// onAir is the Resolve scratch reused across barriers.
	onAir []int

	// rctx and visitFn implement Resolve's per-frame receiver visit
	// without allocating: the closure a caller's each callback receives is
	// built once (lazily) and reads the current frame's state from rctx,
	// instead of a fresh closure per frame escaping through each.
	// Barrier-only, like every other Resolve structure.
	rctx    resolveCtx
	visitFn func(to NodeID, pos Position)

	// jamStart/jamUntil track the current (or last) jam burst per channel,
	// with Jam extending an ongoing burst — the same single-burst model as
	// Medium.Jam. Frames are resolved at the barrier closing their window
	// and jams are injected at barriers, so no frame ever needs a burst
	// older than the current one.
	jamStart []sim.Time
	jamUntil []sim.Time

	rx    map[NodeID]*sim.Stream
	stats ShardedStats
}

// ShardedConfig parameterizes a ShardedMedium.
type ShardedConfig struct {
	// Range is the radio range in meters (under Distance's metric).
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
	// Distance overrides the Euclidean metric (nil = Euclidean). Ring
	// worlds pass arc distance so the wrap seam has no radio shadow.
	Distance func(a, b Position) float64
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
// stream) and routes it through its shard's mailbox to the closing edge.
type ShardedTx struct {
	From    NodeID
	Channel int
	// Pos is the sender's position at send time, in whatever coordinates
	// the configured distance function understands.
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
		seed:     seed,
		cfg:      cfg,
		jamStart: make([]sim.Time, cfg.Channels),
		jamUntil: make([]sim.Time, cfg.Channels),
		rx:       make(map[NodeID]*sim.Stream),
	}
}

// Config returns the medium configuration (with clamps applied).
func (m *ShardedMedium) Config() ShardedConfig { return m.cfg }

// Stats returns a copy of the delivery accounting so far.
func (m *ShardedMedium) Stats() ShardedStats { return m.stats }

// Pending returns how many frames await the next Resolve.
func (m *ShardedMedium) Pending() int { return len(m.pending) }

// Queue hands one frame to the medium for resolution at the next barrier.
// Barrier-only: call it from the mailbox message the sender routed to the
// closing edge.
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
	if now >= m.jamUntil[channel] {
		m.jamStart[channel] = now
	}
	if until := now + d; until > m.jamUntil[channel] {
		m.jamUntil[channel] = until
	}
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
	return t >= m.jamStart[channel] && t < m.jamUntil[channel]
}

// dist applies the configured metric.
func (m *ShardedMedium) dist(a, b Position) float64 {
	if m.cfg.Distance != nil {
		return m.cfg.Distance(a, b)
	}
	return a.Distance(b)
}

// jamOverlaps reports whether the frame's airtime window overlapped the
// channel's current jam burst — the same interval test as Medium.
func (m *ShardedMedium) jamOverlaps(tx *ShardedTx) bool {
	c := tx.Channel
	if m.jamStart[c] >= m.jamUntil[c] {
		return false // empty burst (e.g. a zero-duration Jam) covers nothing
	}
	return m.jamStart[c] < tx.end(m.cfg.Airtime) && m.jamUntil[c] > tx.Start
}

// airtimesOverlap reports whether two frames' airtime windows intersect.
func airtimesOverlap(a, b *ShardedTx, airtime sim.Time) bool {
	return a.Start < b.end(airtime) && b.Start < a.end(airtime)
}

// rxStream returns the receiver's loss stream, creating it on first use.
// Streams are keyed by entity id and derived from SplitSeed, so creation
// order — and therefore shard layout — cannot perturb the draws.
func (m *ShardedMedium) rxStream(id NodeID) *sim.Stream {
	s, ok := m.rx[id]
	if !ok {
		s = sim.NewStream(m.seed, int64(id), shardedLossDim)
		m.rx[id] = s
	}
	return s
}

// Prime pre-creates the loss streams for a contiguous id range at their
// deterministic initial state. A record/replay checkpoint restore primes
// every receiver first, so RestoreState finds a stream for each node the
// checkpoint names.
func (m *ShardedMedium) Prime(first, last NodeID) {
	for id := first; id <= last; id++ {
		m.rxStream(id)
	}
}

// Resolve decides every queued frame's fate in deterministic (start,
// sender) order and clears the queue. Single-threaded barrier work.
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
	if m.visitFn == nil {
		m.visitFn = func(to NodeID, pos Position) {
			tx := m.rctx.tx
			if to == tx.From {
				return
			}
			switch {
			case m.dist(tx.Pos, pos) > m.cfg.Range:
				m.stats.OutOfRange++
				m.rctx.drop(tx, to, DropOutOfRange)
			case m.rctx.jammed:
				m.stats.Jammed++
				m.rctx.drop(tx, to, DropJam)
			case m.collides(tx, m.rctx.at, pos, m.onAir):
				m.stats.Collisions++
				m.rctx.drop(tx, to, DropCollision)
			case m.cfg.LossProb > 0 && m.rxStream(to).Float64() < m.cfg.LossProb:
				m.stats.Losses++
				m.rctx.drop(tx, to, DropLoss)
			default:
				m.stats.Delivered++
				m.rctx.deliver(tx, to)
			}
		}
	}
	sortTxs(m.pending)

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

	m.rctx.deliver, m.rctx.drop = deliver, drop
	for at, i := range onAir {
		m.rctx.tx = &m.pending[i]
		m.rctx.at = at
		m.rctx.jammed = m.jamOverlaps(m.rctx.tx)
		m.stats.Sent++
		each(m.rctx.tx, m.visitFn)
	}
	// Unpin the caller's callbacks (and the last frame) between barriers.
	m.rctx = resolveCtx{}
	m.pending = m.pending[:0]
}

// resolveCtx carries the frame Resolve's reusable visit closure is
// currently deciding, plus the caller's outcome callbacks for this pass.
type resolveCtx struct {
	tx      *ShardedTx
	at      int
	jammed  bool
	deliver func(tx *ShardedTx, to NodeID)
	drop    func(tx *ShardedTx, to NodeID, reason DropReason)
}

// sortTxs orders a frame set by (Start, From), the order Resolve decides
// frames in.
func sortTxs(txs []ShardedTx) {
	// Capture-free comparator: the stable generic sort allocates nothing,
	// unlike sort.SliceStable's closure + interface boxing.
	slices.SortStableFunc(txs, func(a, b ShardedTx) int {
		if c := cmp.Compare(a.Start, b.Start); c != 0 {
			return c
		}
		return cmp.Compare(a.From, b.From)
	})
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
		clearAt = m.jamUntil[tx.Channel]
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
		if m.dist(o.Pos, tx.Pos) <= m.cfg.Range {
			busy = true
			if end > clearAt {
				clearAt = end
			}
		}
	}
	return clearAt, busy
}

// ShardedMediumState is a checkpoint of the medium's mutable state for
// record/replay: the accounting counters, the jam bursts, and every
// created receiver stream's generator state. Pending frames are not part
// of it — checkpoints are taken at window barriers, after Resolve has
// emptied the queue.
type ShardedMediumState struct {
	stats    ShardedStats
	jamStart []sim.Time
	jamUntil []sim.Time
	rx       map[NodeID]uint64
}

// SaveState checkpoints the medium into st (reusing its storage) and
// returns it; pass nil to allocate. Barrier-only.
func (m *ShardedMedium) SaveState(st *ShardedMediumState) *ShardedMediumState {
	if st == nil {
		st = &ShardedMediumState{rx: make(map[NodeID]uint64, len(m.rx))}
	}
	st.stats = m.stats
	st.jamStart = append(st.jamStart[:0], m.jamStart...)
	st.jamUntil = append(st.jamUntil[:0], m.jamUntil...)
	clear(st.rx)
	for id, s := range m.rx {
		st.rx[id] = s.State()
	}
	return st
}

// RestoreState rewinds the medium to a SaveState checkpoint. Barrier-only.
func (m *ShardedMedium) RestoreState(st *ShardedMediumState) {
	m.stats = st.stats
	copy(m.jamStart, st.jamStart)
	copy(m.jamUntil, st.jamUntil)
	for id, state := range st.rx {
		m.rx[id].Restore(state)
	}
	m.pending = m.pending[:0]
}

// collides reports whether another on-air frame on the same channel
// overlapped tx's airtime audibly at the receiver position — the same
// predicate as Medium.collides, evaluated over the window's frame set.
// at is tx's position in onAir (the Resolve loop index). onAir is sorted
// by start, and with a uniform airtime only frames whose start lies
// within one airtime of tx's can overlap, so the scan walks a local
// neighborhood of at rather than the whole window.
func (m *ShardedMedium) collides(tx *ShardedTx, at int, rxPos Position, onAir []int) bool {
	for k := at - 1; k >= 0; k-- {
		o := &m.pending[onAir[k]]
		if o.end(m.cfg.Airtime) <= tx.Start {
			break // starts are ordered: everything earlier ended earlier too
		}
		if o.Channel == tx.Channel && m.dist(o.Pos, rxPos) <= m.cfg.Range {
			return true
		}
	}
	end := tx.end(m.cfg.Airtime)
	for k := at + 1; k < len(onAir); k++ {
		o := &m.pending[onAir[k]]
		if o.Start >= end {
			break
		}
		if o.Channel == tx.Channel && m.dist(o.Pos, rxPos) <= m.cfg.Range {
			return true
		}
	}
	return false
}
