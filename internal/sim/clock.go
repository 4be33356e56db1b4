package sim

import "math/rand"

// Clock supplies virtual time. *Kernel implements it; components that only
// need Now() accept a Clock so they can run inside a sharded world, where
// an entity's notion of "now" must travel with the entity across shard
// handoffs instead of being pinned to the kernel that created it.
type Clock interface {
	Now() Time
}

// ManualClock is a Clock whose time is set explicitly by its owner. A
// shard-safe entity (e.g. a car's KARYON stack) owns one and sets it at the
// start of every step of the entity, so all of the entity's
// components (sensors, state tables, safety manager) read a consistent
// "now" no matter which shard currently steps the entity.
type ManualClock struct {
	t Time
}

// Now implements Clock.
func (c *ManualClock) Now() Time { return c.t }

// Set advances the clock to t (moves backward too; the owner is trusted).
func (c *ManualClock) Set(t Time) { c.t = t }

// NewStream returns a deterministic random stream for one (entity, dim)
// pair derived from the run seed via SplitSeed. Sharded models draw every
// entity's randomness from such streams — never from a shard's position —
// so the sequence an entity consumes is independent of which shard runs it
// and of how other entities' events interleave. The returned Stream exposes
// State/Restore so a record/replay checkpoint can capture and restore it.
func NewStream(seed, entity, dim int64) *Stream {
	src := NewSource(seed, entity, dim)
	return &Stream{Rand: rand.New(&src), src: &src}
}

// DriftClock models an imperfect local oscillator: a node's view of time
// advances at rate (1 + drift) relative to virtual time and may carry a
// fixed offset. The paper's pulse-synchronization study (Sec. V-A2) targets
// exactly this setting — MicaZ-class crystals without GPS. Drift is
// expressed as a fraction, e.g. 50e-6 for +50 ppm.
type DriftClock struct {
	kernel *Kernel
	drift  float64
	offset Time
}

// NewDriftClock returns a clock over kernel with the given drift fraction
// and initial offset.
func NewDriftClock(kernel *Kernel, drift float64, offset Time) *DriftClock {
	return &DriftClock{kernel: kernel, drift: drift, offset: offset}
}

// Now returns the node-local time: virtual time scaled by drift plus offset.
func (c *DriftClock) Now() Time {
	t := float64(c.kernel.Now()) * (1 + c.drift)
	return Time(t) + c.offset
}

// Adjust shifts the clock's offset by delta (positive moves local time
// forward). Pulse-synchronization algorithms call this to converge.
func (c *DriftClock) Adjust(delta Time) {
	c.offset += delta
}

// Offset returns the current offset component.
func (c *DriftClock) Offset() Time { return c.offset }

// Drift returns the configured drift fraction.
func (c *DriftClock) Drift() float64 { return c.drift }

// ErrorVersus returns the signed difference between this clock's local time
// and another clock's local time at the current virtual instant.
func (c *DriftClock) ErrorVersus(other *DriftClock) Time {
	return c.Now() - other.Now()
}
