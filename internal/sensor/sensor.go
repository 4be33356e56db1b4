// Package sensor implements KARYON's abstract sensor model (paper Sec. IV):
// physical sensors with the paper's five fault-mode dimensions (delay,
// sporadic offset, permanent offset, stochastic offset, stuck-at), a
// MOSAIC-style detection pipeline (Fig. 3) with dominant and continuous
// failure detectors feeding a fault-management unit that derives a single
// data validity in [0,1], and fusion operators (Marzullo interval fusion,
// validity-weighted averaging, temporal redundancy) that build an abstract
// *reliable* sensor out of unreliable ones (Sec. IV-B).
package sensor

import (
	"fmt"
	"math"
	"math/rand"

	"karyon/internal/sim"
)

// Reading is the data-centric unit exchanged by the system: a value, its
// acquisition timestamp, and the validity estimate that abstracts whatever
// fault detection produced it. Validity is the paper's central idea — the
// consumer never needs the underlying fault model.
type Reading struct {
	Value    float64
	Time     sim.Time
	Validity float64 // 0 = known bad, 1 = fully trusted
	Source   string
}

// Age returns how old the reading is at the given instant.
func (r Reading) Age(now sim.Time) sim.Time {
	if now < r.Time {
		return 0
	}
	return now - r.Time
}

// FaultMode enumerates the paper's five sensor fault-mode dimensions
// (Sec. IV-A, categorization from [42]).
type FaultMode int

// Fault modes.
const (
	FaultDelay FaultMode = iota + 1
	FaultSporadicOffset
	FaultPermanentOffset
	FaultStochasticOffset
	FaultStuckAt
)

var faultModeNames = map[FaultMode]string{
	FaultDelay:            "delay",
	FaultSporadicOffset:   "sporadic-offset",
	FaultPermanentOffset:  "permanent-offset",
	FaultStochasticOffset: "stochastic-offset",
	FaultStuckAt:          "stuck-at",
}

// String returns the fault mode's name.
func (m FaultMode) String() string {
	if s, ok := faultModeNames[m]; ok {
		return s
	}
	return fmt.Sprintf("fault(%d)", int(m))
}

// AllFaultModes lists every mode, for sweeps.
func AllFaultModes() []FaultMode {
	return []FaultMode{
		FaultDelay, FaultSporadicOffset, FaultPermanentOffset,
		FaultStochasticOffset, FaultStuckAt,
	}
}

// Fault describes one injected fault episode on a physical sensor.
type Fault struct {
	Mode FaultMode
	// From/To bound the episode in virtual time (To == 0 means forever).
	From sim.Time
	To   sim.Time
	// Magnitude is the offset size (offset modes) or noise sigma
	// (stochastic mode), in value units.
	Magnitude float64
	// Delay is the staleness introduced by a delay fault.
	Delay sim.Time
	// Prob is the per-sample activation probability for sporadic offsets.
	Prob float64
}

// ActiveAt reports whether the episode covers instant t.
func (f Fault) ActiveAt(t sim.Time) bool {
	if t < f.From {
		return false
	}
	return f.To == 0 || t < f.To
}

// Truth supplies ground truth for a measured quantity.
type Truth func(t sim.Time) float64

// Physical models a concrete transducer: it samples ground truth with
// nominal Gaussian noise and applies any active fault episodes. It is the
// component "C" of the paper's Fig. 2; the detectors wrapped around it by
// Abstract are the redundancy "F".
type Physical struct {
	name  string
	clock sim.Clock
	truth Truth
	// sigma is the nominal measurement noise (1-sigma).
	sigma  float64
	faults []Fault
	// stuck holds the frozen value while a stuck-at fault is active.
	stuck    float64
	stuckSet bool
	rng      *rand.Rand
}

// NewPhysical creates a physical sensor over ground truth with nominal
// noise sigma, drawing measurement noise from the kernel's rng.
func NewPhysical(kernel *sim.Kernel, name string, truth Truth, sigma float64) *Physical {
	return &Physical{
		name:  name,
		clock: kernel,
		truth: truth,
		sigma: sigma,
		rng:   kernel.Rand(),
	}
}

// NewPhysicalDetached creates a physical sensor bound to an explicit clock
// and random stream instead of a kernel. Sharded worlds use it: the clock
// travels with the owning entity across shard handoffs, and the per-entity
// stream (sim.NewStream) keeps the noise sequence independent of the
// partition.
func NewPhysicalDetached(clock sim.Clock, name string, truth Truth, sigma float64, rng *rand.Rand) *Physical {
	return &Physical{name: name, clock: clock, truth: truth, sigma: sigma, rng: rng}
}

// Name returns the sensor's name.
func (p *Physical) Name() string { return p.name }

// Sigma returns the nominal noise level.
func (p *Physical) Sigma() float64 { return p.sigma }

// Inject adds a fault episode.
func (p *Physical) Inject(f Fault) { p.faults = append(p.faults, f) }

// ClearFaults removes all fault episodes.
func (p *Physical) ClearFaults() {
	p.faults = nil
	p.stuckSet = false
}

// Sample acquires one raw reading at the current virtual instant. The raw
// reading claims full validity — judging it is the detectors' job.
func (p *Physical) Sample() Reading {
	now := p.clock.Now()
	t := now
	value := p.truth(t) + p.rng.NormFloat64()*p.sigma

	for _, f := range p.faults {
		if !f.ActiveAt(now) {
			continue
		}
		switch f.Mode {
		case FaultDelay:
			// The sensor reports a stale measurement but stamps it with
			// the acquisition time it *claims* — detection must rely on
			// the claimed timestamp lagging behind.
			t = now - f.Delay
			if t < 0 {
				t = 0
			}
			value = p.truth(t) + p.rng.NormFloat64()*p.sigma
		case FaultSporadicOffset:
			if p.rng.Float64() < f.Prob {
				value += f.Magnitude
			}
		case FaultPermanentOffset:
			value += f.Magnitude
		case FaultStochasticOffset:
			value += p.rng.NormFloat64() * f.Magnitude
		case FaultStuckAt:
			if !p.stuckSet {
				p.stuck = value
				p.stuckSet = true
			}
			value = p.stuck
		}
	}
	// Reset stuck latch once no stuck fault is active.
	if p.stuckSet && !p.stuckActive(now) {
		p.stuckSet = false
	}
	return Reading{Value: value, Time: t, Validity: 1, Source: p.name}
}

func (p *Physical) stuckActive(now sim.Time) bool {
	for _, f := range p.faults {
		if f.Mode == FaultStuckAt && f.ActiveAt(now) {
			return true
		}
	}
	return false
}

// Clamp bounds v into [0,1].
func Clamp(v float64) float64 {
	switch {
	case v < 0:
		return 0
	case v > 1:
		return 1
	case math.IsNaN(v):
		return 0
	default:
		return v
	}
}
