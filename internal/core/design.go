package core

import (
	"errors"
	"fmt"

	"karyon/internal/sim"
)

// ErrShared reports an edit of design-time information that vehicles
// already share: once a vehicle is built from a Design, its rules,
// envelopes and indicator table are fixed for every vehicle built from it.
var ErrShared = errors.New("core: design is shared by built vehicles and cannot change")

// Design is the design-time safety information of one functionality
// (paper Sec. III, Fig. 1): its LoS ladder, the rules gating each level
// with their indicators interned to slots, and the actuation envelopes
// certified per level. Build makes a vehicle's run-time half — Manager,
// Functionality, RuntimeInfo and Gate — over it, and from then on the
// design is shared read-only by every vehicle built from it: a world
// builds one design, not one per car.
//
// The string API (Manager.AddFunctionality, Functionality.AddRule,
// NewGate) builds a private design per functionality, which stays
// editable because no other vehicle reads it.
type Design struct {
	name   string
	levels int
	// rules holds each level's rules by level (levels 0 and 1 hold none).
	rules [][]Rule
	keys  *keyTable
	// env is the certified envelopes Build gives the vehicle's gate; nil
	// when the design has none.
	env *envelopes
}

// NewDesign starts the design of a functionality with the given number of
// levels (≥ 1) and its own indicator table.
func NewDesign(name string, levels int) (*Design, error) {
	return newDesign(name, levels, &keyTable{})
}

func newDesign(name string, levels int, keys *keyTable) (*Design, error) {
	if levels < 1 {
		return nil, fmt.Errorf("core: functionality %q needs at least 1 level", name)
	}
	return &Design{name: name, levels: levels, rules: make([][]Rule, levels+1), keys: keys}, nil
}

// AddRule attaches a design-time rule to a level, resolving the indicator
// it reads to a slot. Level 1 accepts no rules: its safety must be
// unconditional.
func (d *Design) AddRule(level LoS, r Rule) error {
	if d.keys.shared {
		return ErrShared
	}
	if level <= LevelSafe || int(level) > d.levels {
		return fmt.Errorf("core: rule %q targets invalid level %v (levels 2..%d)",
			r.Name, level, d.levels)
	}
	if r.test != nil {
		r.slot = d.keys.intern(r.key)
	}
	d.rules[level] = append(d.rules[level], r)
	return nil
}

// SetEnvelopes certifies the per-level actuation envelopes the gate of
// every vehicle built from the design enforces. Every level in 1..levels
// must have one.
func (d *Design) SetEnvelopes(envelopes map[LoS]Envelope) error {
	if d.keys.shared {
		return ErrShared
	}
	env, err := newEnvelopes(d.name, d.levels, envelopes)
	if err != nil {
		return err
	}
	d.env = env
	return nil
}

// Key resolves an indicator name to its slot, adding it to the table if
// the design is not shared yet. A vehicle built from the design sets the
// indicator through the key (RuntimeInfo.SetKey) without a name lookup.
func (d *Design) Key(name string) Key {
	return Key{name: name, t: d.keys, i: d.keys.intern(name)}
}

// kernel is the run-time half of one vehicle's safety kernel over a
// design, allocated as one block: its slices start in the inline arrays,
// which hold a ladder of up to three levels and four indicators, and
// move out only if they outgrow them.
type kernel struct {
	m      Manager
	ri     RuntimeInfo
	fn     Functionality
	gate   Gate
	fns    [1]*Functionality
	timeAt [4]sim.Time
	vals   [4]indicatorSlot
}

// Build makes a vehicle's safety kernel over the design: a manager with
// one functionality and its runtime store, and the actuation gate over the
// design's envelopes (nil when it has none). The design becomes shared:
// every later edit of it, or through the built vehicle, fails with
// ErrShared. The manager is detached: drive Cycle, or Start it on a clock
// that can schedule.
func (d *Design) Build(clock sim.Clock, cfg ManagerConfig) (*Manager, *Gate, error) {
	cfg, err := checkConfig(cfg)
	if err != nil {
		return nil, nil, err
	}
	d.keys.shared = true
	if d.env != nil {
		d.env.shared = true
	}
	k := &kernel{}
	k.ri = RuntimeInfo{clock: clock, keys: d.keys, vals: k.vals[:0]}
	k.fn = Functionality{
		d:         d,
		current:   LevelSafe,
		timeAt:    append(k.timeAt[:0], make([]sim.Time, d.levels+1)...),
		enteredAt: clock.Now(),
	}
	k.fns[0] = &k.fn
	k.m = Manager{cfg: cfg, clock: clock, ri: &k.ri, ordered: k.fns[:]}
	var gate *Gate
	if d.env != nil {
		k.gate = Gate{fn: &k.fn, env: d.env}
		gate = &k.gate
	}
	return &k.m, gate, nil
}
