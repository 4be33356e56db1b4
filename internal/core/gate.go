package core

import (
	"fmt"
	"math"
	"slices"
)

// Envelope is the actuation envelope certified for a LoS: per-channel
// bounds on command values (e.g. acceleration, steering rate).
type Envelope struct {
	// Min and Max bound each named actuation channel.
	Min map[string]float64
	Max map[string]float64
}

// NewEnvelope creates an empty envelope.
func NewEnvelope() Envelope {
	return Envelope{Min: make(map[string]float64), Max: make(map[string]float64)}
}

// Bound sets the channel's permitted interval.
func (e Envelope) Bound(channel string, min, max float64) Envelope {
	e.Min[channel] = min
	e.Max[channel] = max
	return e
}

// envelopes is the dense form of a ladder's per-level Envelopes: the
// channels, sorted by name, and per channel one [lo, hi] bound per level.
// An absent bound is the infinity on its side, which no value crosses, so
// the filter is two compares whatever the envelope names.
type envelopes struct {
	levels int
	chans  []string
	// bounds holds channel c's bound at level l at c*(levels+1)+l.
	bounds []bound
	// shared marks a design's envelopes once vehicles are built over them.
	shared bool
}

// bound is one channel's interval at one level; set records whether the
// level's envelope names the channel at all.
type bound struct {
	lo, hi float64
	set    bool
}

// newEnvelopes resolves per-level envelopes for a ladder of the given
// number of levels. Every level in 1..levels must have an envelope: a
// missing envelope would leave a level without a certified safety case.
// Envelopes of levels outside the ladder are ignored.
func newEnvelopes(name string, levels int, envs map[LoS]Envelope) (*envelopes, error) {
	for l := 1; l <= levels; l++ {
		if _, ok := envs[LoS(l)]; !ok {
			return nil, fmt.Errorf("core: gate for %q missing envelope for %v", name, LoS(l))
		}
	}
	env := &envelopes{levels: levels}
	for l := 1; l <= levels; l++ {
		e := envs[LoS(l)]
		for c, min := range e.Min {
			env.at(env.addChannel(c), LoS(l)).lo = min
		}
		for c, max := range e.Max {
			env.at(env.addChannel(c), LoS(l)).hi = max
		}
	}
	return env, nil
}

// channel returns the channel's index, or -1 when no level bounds it.
func (env *envelopes) channel(name string) int {
	for c, n := range env.chans {
		if n == name {
			return c
		}
	}
	return -1
}

// addChannel returns the channel's index, adding it with no bound at any
// level if it is new.
func (env *envelopes) addChannel(name string) int {
	if c := env.channel(name); c >= 0 {
		return c
	}
	c, _ := slices.BinarySearch(env.chans, name)
	env.chans = slices.Insert(env.chans, c, name)
	open := make([]bound, env.levels+1)
	for l := range open {
		open[l] = bound{lo: math.Inf(-1), hi: math.Inf(1)}
	}
	env.bounds = slices.Insert(env.bounds, c*(env.levels+1), open...)
	return c
}

// at returns channel c's bound at level l, marked as named by the level.
func (env *envelopes) at(c int, l LoS) *bound {
	b := &env.bounds[c*(env.levels+1)+int(l)]
	b.set = true
	return b
}

// Gate is the Simplex-style actuation gate: every command from the
// (uncertain) nominal controllers passes through it, and is clamped to the
// envelope certified for the functionality's *current* LoS. The nominal
// controller may be arbitrarily wrong; the actuator never sees a command
// outside the safety case.
type Gate struct {
	fn  *Functionality
	env *envelopes

	// Clamped counts commands that had to be limited.
	Clamped int64
	// Passed counts commands forwarded unmodified.
	Passed int64
}

// NewGate creates a gate for the functionality with per-level envelopes.
// Every level in 1..fn.Levels() must have an envelope: a missing envelope
// would leave a level without a certified safety case. The gate keeps its
// own copy of the bounds.
func NewGate(fn *Functionality, envelopes map[LoS]Envelope) (*Gate, error) {
	env, err := newEnvelopes(fn.Name(), fn.Levels(), envelopes)
	if err != nil {
		return nil, err
	}
	return &Gate{fn: fn, env: env}, nil
}

// Bound sets the channel's permitted interval at a level. A gate built
// from a shared Design cannot change its envelopes (ErrShared).
func (g *Gate) Bound(level LoS, channel string, min, max float64) error {
	if g.env.shared {
		return ErrShared
	}
	if level < LevelSafe || int(level) > g.env.levels {
		return fmt.Errorf("core: bound on %q targets invalid level %v (levels 1..%d)",
			channel, level, g.env.levels)
	}
	b := g.env.at(g.env.addChannel(channel), level)
	b.lo, b.hi = min, max
	return nil
}

// Filter clamps value to the current level's bounds for the channel. A
// channel without bounds at the current level passes unmodified. The
// second result reports whether clamping occurred.
func (g *Gate) Filter(channel string, value float64) (float64, bool) {
	out := value
	if c := g.env.channel(channel); c >= 0 {
		b := &g.env.bounds[c*(g.env.levels+1)+int(g.fn.current)]
		if out < b.lo {
			out = b.lo
		}
		if out > b.hi {
			out = b.hi
		}
	}
	if out != value {
		g.Clamped++
		return out, true
	}
	g.Passed++
	return out, false
}

// Channels returns the channels bounded at the given level, sorted.
func (g *Gate) Channels(level LoS) []string {
	out := []string{}
	if level < LevelSafe || int(level) > g.env.levels {
		return out
	}
	for c, name := range g.env.chans {
		if g.env.bounds[c*(g.env.levels+1)+int(level)].set {
			out = append(out, name)
		}
	}
	return out
}
