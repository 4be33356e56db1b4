// Package wireless simulates the communication substrates KARYON runs on:
// a shared broadcast radio medium with range, propagation delay, airtime,
// probabilistic loss, slot-level collisions and injectable interference
// (the source of the paper's "network inaccessibility" periods), plus a
// reliable prioritized local bus standing in for the CAN field bus and
// simple lossy point-to-point links for protocol studies.
package wireless

import (
	"fmt"
	"math"

	"karyon/internal/sim"
)

// NodeID identifies a radio or bus endpoint.
type NodeID int

// Position is a location in meters.
type Position struct {
	X float64
	Y float64
	Z float64
}

// Distance returns the Euclidean distance between two positions.
func (p Position) Distance(q Position) float64 {
	dx, dy, dz := p.X-q.X, p.Y-q.Y, p.Z-q.Z
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}

// Frame is what radios exchange. Payload is opaque to the medium.
type Frame struct {
	From    NodeID
	Channel int
	Payload any
	// SentAt is stamped by the medium when transmission starts.
	SentAt sim.Time
}

// DropReason classifies why a frame was not delivered to a receiver.
type DropReason int

// Drop reasons.
const (
	DropLoss DropReason = iota + 1
	DropCollision
	DropJam
	DropOutOfRange
	// DropBusy is a carrier-sense deferral on the sharded medium: the
	// sender heard the slot occupied and skipped the frame entirely.
	DropBusy
)

// String returns a short label for the drop reason.
func (r DropReason) String() string {
	switch r {
	case DropLoss:
		return "loss"
	case DropCollision:
		return "collision"
	case DropJam:
		return "jam"
	case DropOutOfRange:
		return "range"
	case DropBusy:
		return "busy"
	default:
		return "unknown"
	}
}

// Stats aggregates medium-level delivery accounting.
type Stats struct {
	Sent       int64
	Delivered  int64
	Collisions int64
	Losses     int64
	Jammed     int64
}

// Config parameterizes a Medium.
type Config struct {
	// Range is the radio range in meters.
	Range float64
	// Airtime is how long one frame occupies the channel.
	Airtime sim.Time
	// PropDelay is the fixed propagation delay added after airtime.
	PropDelay sim.Time
	// LossProb is the independent per-receiver frame loss probability.
	LossProb float64
	// Channels is the number of orthogonal radio channels (≥1).
	Channels int
}

// DefaultConfig returns parameters resembling a short 802.11p-class frame.
func DefaultConfig() Config {
	return Config{
		Range:     300,
		Airtime:   400 * sim.Microsecond, // ~300 B at 6 Mb/s
		PropDelay: 1 * sim.Microsecond,
		LossProb:  0,
		Channels:  1,
	}
}

// transmission is one in-flight frame occupying the medium.
type transmission struct {
	frame Frame
	from  *Radio
	start sim.Time
	end   sim.Time
}

// Medium is a shared broadcast radio channel set. Not safe for concurrent
// use; the simulation is single-threaded per kernel. It is the wire-level
// substrate of the protocol studies (mac, inaccess, coord, pubsub): it
// draws loss from the kernel's rng and decides collisions from the global
// set of in-flight transmissions, both of which depend on event
// interleaving — exactly what the partitioned worlds must not depend on.
// The sharded worlds therefore model V2V as snapshot-ranged barrier
// delivery with per-entity loss streams instead of attaching radios here
// (see internal/world).
type Medium struct {
	kernel *sim.Kernel
	cfg    Config
	radios *registry
	active []*transmission
	// jams[c] is channel c's current (or last) jam burst.
	jams  []Burst
	stats Stats
	// onDrop, if set, observes every per-receiver drop (for experiments).
	onDrop func(to NodeID, reason DropReason)
}

// NewMedium creates a medium over the kernel. Channels below 1 are clamped
// to 1.
func NewMedium(kernel *sim.Kernel, cfg Config) *Medium {
	if cfg.Channels < 1 {
		cfg.Channels = 1
	}
	return &Medium{
		kernel: kernel,
		cfg:    cfg,
		radios: newRegistry(),
		jams:   make([]Burst, cfg.Channels),
	}
}

// Config returns the medium configuration.
func (m *Medium) Config() Config { return m.cfg }

// Stats returns a copy of the delivery accounting so far.
func (m *Medium) Stats() Stats { return m.stats }

// SetDropObserver registers a callback invoked on every per-receiver drop.
func (m *Medium) SetDropObserver(fn func(to NodeID, reason DropReason)) {
	m.onDrop = fn
}

// Attach creates a radio for the node at pos, listening on channel 0.
// Attaching an already-attached id returns an error.
func (m *Medium) Attach(id NodeID, pos Position) (*Radio, error) {
	r := &Radio{id: id, medium: m, pos: pos}
	if !m.radios.add(r) {
		return nil, fmt.Errorf("wireless: node %d already attached", id)
	}
	return r, nil
}

// Detach removes the node's radio (e.g. a crashed node). Unknown ids are
// ignored.
func (m *Medium) Detach(id NodeID) {
	m.radios.remove(id)
}

// Jam marks channel as jammed for the next d units of virtual time,
// extending any ongoing jam. Frames whose reception window overlaps a jam
// are dropped and carrier sense reports busy — this is the external
// interference that produces inaccessibility periods (paper Sec. V-A1).
func (m *Medium) Jam(channel int, d sim.Time) {
	if channel < 0 || channel >= m.cfg.Channels {
		return
	}
	m.jams[channel].Extend(m.kernel.Now(), d)
}

// Jammed reports whether channel is currently jammed.
func (m *Medium) Jammed(channel int) bool {
	if channel < 0 || channel >= m.cfg.Channels {
		return false
	}
	return m.jams[channel].Covers(m.kernel.Now())
}

// CarrierBusy reports whether node id senses energy on channel: an ongoing
// in-range transmission (other than its own) or a jam.
func (m *Medium) CarrierBusy(id NodeID, channel int) bool {
	if m.Jammed(channel) {
		return true
	}
	r := m.radios.get(id)
	if r == nil {
		return false
	}
	now := m.kernel.Now()
	for _, tx := range m.active {
		// A transmission starting at this exact instant is not yet
		// detectable (the CSMA vulnerability window): energy needs the
		// propagation delay to reach the sensing radio.
		if tx.start+m.cfg.PropDelay > now {
			continue
		}
		if tx.end <= now || tx.frame.Channel != channel || tx.from.id == id {
			continue
		}
		if tx.from.pos.Distance(r.pos) <= m.cfg.Range {
			return true
		}
	}
	return false
}

// broadcast starts a transmission from r. Delivery to each in-range radio
// on the same channel happens at end-of-airtime + propagation delay, unless
// loss, collision or jam intervenes.
func (m *Medium) broadcast(r *Radio, channel int, payload any) {
	now := m.kernel.Now()
	tx := &transmission{
		frame: Frame{From: r.id, Channel: channel, Payload: payload, SentAt: now},
		from:  r,
		start: now,
		end:   now + m.cfg.Airtime,
	}
	m.active = append(m.active, tx)
	m.stats.Sent++
	m.kernel.At(tx.end+m.cfg.PropDelay, func() { m.complete(tx) })
}

// complete finishes a transmission: decides per-receiver outcomes and
// prunes the active list.
func (m *Medium) complete(tx *transmission) {
	// The registry slice is already sorted by id, so per-receiver outcomes
	// are decided in deterministic order with no per-frame allocation.
	for _, rx := range m.radios.list {
		id := rx.id
		if id == tx.from.id {
			continue
		}
		if rx.channel != tx.frame.Channel {
			continue
		}
		if tx.from.pos.Distance(rx.pos) > m.cfg.Range {
			m.drop(id, DropOutOfRange)
			continue
		}
		switch {
		case m.jams[tx.frame.Channel].Overlaps(tx.start, tx.end):
			m.stats.Jammed++
			m.drop(id, DropJam)
		case m.collides(tx, rx):
			m.stats.Collisions++
			m.drop(id, DropCollision)
		case m.cfg.LossProb > 0 && m.kernel.Rand().Float64() < m.cfg.LossProb:
			m.stats.Losses++
			m.drop(id, DropLoss)
		default:
			m.stats.Delivered++
			if rx.receive != nil {
				rx.receive(tx.frame)
			}
		}
	}
	// Prune transmissions whose completion instant has passed. Entries
	// completing exactly now are kept so that simultaneous transmissions
	// still see each other when their own complete() runs.
	now := m.kernel.Now()
	kept := m.active[:0]
	for _, a := range m.active {
		if a.end+m.cfg.PropDelay >= now {
			kept = append(kept, a)
		}
	}
	// Zero the tail so finished transmissions can be collected.
	for i := len(kept); i < len(m.active); i++ {
		m.active[i] = nil
	}
	m.active = kept
}

func (m *Medium) drop(to NodeID, reason DropReason) {
	if m.onDrop != nil {
		m.onDrop(to, reason)
	}
}

// collides reports whether another transmission audible at rx overlapped
// tx's airtime on the same channel.
func (m *Medium) collides(tx *transmission, rx *Radio) bool {
	for _, other := range m.active {
		if other == tx || other.frame.Channel != tx.frame.Channel {
			continue
		}
		if other.start < tx.end && tx.start < other.end {
			if other.from.pos.Distance(rx.pos) <= m.cfg.Range {
				return true
			}
		}
	}
	return false
}

// Radio is one node's interface to the medium.
type Radio struct {
	id      NodeID
	medium  *Medium
	pos     Position
	channel int
	receive func(Frame)
}

// ID returns the radio's node id.
func (r *Radio) ID() NodeID { return r.id }

// Position returns the radio's current position.
func (r *Radio) Position() Position { return r.pos }

// SetPosition moves the radio (vehicle mobility).
func (r *Radio) SetPosition(p Position) { r.pos = p }

// Channel returns the channel the radio listens on.
func (r *Radio) Channel() int { return r.channel }

// SetChannel retunes the radio. Out-of-range channels are clamped.
func (r *Radio) SetChannel(c int) {
	if c < 0 {
		c = 0
	}
	if c >= r.medium.cfg.Channels {
		c = r.medium.cfg.Channels - 1
	}
	r.channel = c
}

// OnReceive registers the frame delivery handler.
func (r *Radio) OnReceive(fn func(Frame)) { r.receive = fn }

// Broadcast transmits payload on the radio's current channel.
func (r *Radio) Broadcast(payload any) {
	r.medium.broadcast(r, r.channel, payload)
}

// CarrierBusy reports whether the radio senses energy on its channel.
func (r *Radio) CarrierBusy() bool {
	return r.medium.CarrierBusy(r.id, r.channel)
}

// Neighbors returns the ids of radios currently within range, in
// ascending id order.
func (r *Radio) Neighbors() []NodeID {
	var out []NodeID
	for _, other := range r.medium.radios.list {
		if other.id == r.id {
			continue
		}
		if r.pos.Distance(other.pos) <= r.medium.cfg.Range {
			out = append(out, other.id)
		}
	}
	return out
}
