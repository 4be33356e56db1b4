package core

import (
	"fmt"
	"slices"
	"strings"

	"karyon/internal/sim"
)

// Switch records one LoS transition of a functionality.
type Switch struct {
	At   sim.Time
	From LoS
	To   LoS
	// Reason names the rule whose violation forced a downgrade (empty for
	// upgrades).
	Reason string
}

// Functionality is one vehicle function managed by the safety kernel
// (e.g. "cruise-control"): the run-time state of a functionality whose
// ladder of LoS levels and design-time rules live in its Design.
type Functionality struct {
	d *Design

	current LoS
	// upStreak counts consecutive cycles in which a higher level was
	// feasible; upgrades require stability (hysteresis), downgrades are
	// immediate.
	upStreak int

	onChange []func(old, new LoS)

	// Switches counts the transitions, and LastSwitch is the latest one
	// (the zero Switch before the first). A run keeps no longer history:
	// an observer that wants one registers OnChange.
	Switches   int
	LastSwitch Switch
	// timeAt accumulates virtual time spent per level, indexed by level
	// (index 0, below LevelSafe, is unused).
	timeAt    []sim.Time
	enteredAt sim.Time
}

// Name returns the functionality name.
func (f *Functionality) Name() string { return f.d.name }

// Current returns the current LoS.
func (f *Functionality) Current() LoS { return f.current }

// Levels returns the number of levels.
func (f *Functionality) Levels() int { return f.d.levels }

// OnChange registers a reconfiguration callback invoked on every switch.
// This is the hook through which nominal components adjust their operating
// point (e.g. the ACC time gap).
func (f *Functionality) OnChange(fn func(old, new LoS)) {
	f.onChange = append(f.onChange, fn)
}

// TimeAt returns the accumulated virtual time spent at the level,
// including the current residence (up to now).
func (f *Functionality) TimeAt(level LoS, now sim.Time) sim.Time {
	var d sim.Time
	if level >= LevelSafe && int(level) <= f.d.levels {
		d = f.timeAt[level]
	}
	if level == f.current {
		d += now - f.enteredAt
	}
	return d
}

// AddRule attaches a design-time rule to a level of the functionality's
// design. Level 1 accepts no rules: its safety must be unconditional. A
// functionality built from a shared Design cannot change it (ErrShared).
func (f *Functionality) AddRule(level LoS, r Rule) error {
	return f.d.AddRule(level, r)
}

// feasible returns the highest level whose cumulative rules hold, plus the
// name of the first violated rule at the level above it.
func (f *Functionality) feasible(ri *RuntimeInfo, now sim.Time) (LoS, string) {
	level := LevelSafe
	for l := 2; l <= f.d.levels; l++ {
		rules := f.d.rules[l]
		for i := range rules {
			if !rules[i].holds(ri, now) {
				return level, rules[i].Name
			}
		}
		level = LoS(l)
	}
	return level, ""
}

// Force pins the functionality at a level, bypassing rules and hysteresis.
// It exists for baseline experiments (fixed-LoS comparisons); a deployed
// system never calls it. now is the current virtual time for time-at-level
// accounting. Out-of-range levels are clamped.
func (f *Functionality) Force(now sim.Time, level LoS) {
	if level < LevelSafe {
		level = LevelSafe
	}
	if int(level) > f.d.levels {
		level = LoS(f.d.levels)
	}
	if level == f.current {
		return
	}
	f.switchTo(now, level, "forced")
}

// switchTo performs the transition bookkeeping and reconfiguration.
func (f *Functionality) switchTo(now sim.Time, target LoS, reason string) {
	old := f.current
	f.timeAt[old] += now - f.enteredAt
	f.current = target
	f.enteredAt = now
	f.Switches++
	f.LastSwitch = Switch{At: now, From: old, To: target, Reason: reason}
	for _, fn := range f.onChange {
		fn(old, target)
	}
}

// ManagerConfig parameterizes the Safety Manager.
type ManagerConfig struct {
	// Period is the manager's evaluation cycle. The design-time safety
	// argument depends on it: a rule violation is acted upon within one
	// period, so the LoS switch time is bounded by Period plus the
	// reconfiguration time of the nominal components.
	Period sim.Time
	// UpgradeStability is the number of consecutive cycles a higher level
	// must remain feasible before the manager raises the LoS. It prevents
	// flapping around a marginal condition. Downgrades are never delayed.
	UpgradeStability int
}

// DefaultManagerConfig returns a 10 ms cycle with 5-cycle upgrade
// hysteresis.
func DefaultManagerConfig() ManagerConfig {
	return ManagerConfig{Period: 10 * sim.Millisecond, UpgradeStability: 5}
}

// Manager is the Safety Manager: it periodically checks run-time safety
// data against the design-time rules and adjusts each functionality's LoS.
// There is logically one Manager per vehicle.
type Manager struct {
	cfg   ManagerConfig
	clock sim.Clock
	ri    *RuntimeInfo

	// ordered holds the functionalities sorted by name: Cycle's order and
	// FunctionalityList's view.
	ordered []*Functionality
	ticker  *sim.Ticker

	// Cycles counts completed evaluation cycles.
	Cycles int64
}

// scheduler is what Start needs beyond a Clock. *sim.Kernel provides it; a
// detached manager (sharded worlds drive Cycle from the entity's own
// control events) does not.
type scheduler interface {
	Every(period sim.Time, fn func()) (*sim.Ticker, error)
}

// NewManager creates a Safety Manager over the runtime-information store.
// The clock is usually the kernel (which also lets Start schedule the
// periodic cycle); a sharded world passes the owning entity's clock and
// drives Cycle explicitly instead of calling Start.
func NewManager(clock sim.Clock, ri *RuntimeInfo, cfg ManagerConfig) (*Manager, error) {
	cfg, err := checkConfig(cfg)
	if err != nil {
		return nil, err
	}
	return &Manager{cfg: cfg, clock: clock, ri: ri}, nil
}

// checkConfig validates a manager configuration and applies its floor.
func checkConfig(cfg ManagerConfig) (ManagerConfig, error) {
	if cfg.Period <= 0 {
		return cfg, fmt.Errorf("core: manager period must be positive")
	}
	if cfg.UpgradeStability < 1 {
		cfg.UpgradeStability = 1
	}
	return cfg, nil
}

// Runtime returns the runtime-information store.
func (m *Manager) Runtime() *RuntimeInfo { return m.ri }

// Period returns the evaluation cycle period.
func (m *Manager) Period() sim.Time { return m.cfg.Period }

// AddFunctionality registers a functionality with the given number of
// levels (≥ 1) and a private design over the manager's indicator table. It
// starts at LevelSafe. A manager built from a shared Design cannot take
// more (ErrShared).
func (m *Manager) AddFunctionality(name string, levels int) (*Functionality, error) {
	if m.ri.keys.shared {
		return nil, ErrShared
	}
	d, err := newDesign(name, levels, m.ri.keys)
	if err != nil {
		return nil, err
	}
	i, dup := slices.BinarySearchFunc(m.ordered, name, func(f *Functionality, name string) int {
		return strings.Compare(f.d.name, name)
	})
	if dup {
		return nil, fmt.Errorf("core: functionality %q already registered", name)
	}
	f := &Functionality{
		d:         d,
		current:   LevelSafe,
		timeAt:    make([]sim.Time, levels+1),
		enteredAt: m.clock.Now(),
	}
	m.ordered = slices.Insert(m.ordered, i, f)
	return f, nil
}

// Functionality returns a registered functionality.
func (m *Manager) Functionality(name string) (*Functionality, bool) {
	for _, f := range m.ordered {
		if f.d.name == name {
			return f, true
		}
	}
	return nil, false
}

// FunctionalityList returns all functionalities sorted by name. The
// returned slice is the manager's own view; callers must not mutate it.
func (m *Manager) FunctionalityList() []*Functionality {
	return m.ordered
}

// Start launches the periodic evaluation cycle. It requires a clock that
// can schedule (a *sim.Kernel); a detached manager must be driven through
// Cycle instead.
func (m *Manager) Start() error {
	sched, ok := m.clock.(scheduler)
	if !ok {
		return fmt.Errorf("core: manager clock cannot schedule; drive Cycle explicitly")
	}
	t, err := sched.Every(m.cfg.Period, m.Cycle)
	if err != nil {
		return err
	}
	m.ticker = t
	return nil
}

// Stop halts the manager.
func (m *Manager) Stop() {
	if m.ticker != nil {
		m.ticker.Stop()
	}
}

// Cycle runs one evaluation pass. It is exported so tests and benchmarks
// can drive the manager synchronously.
func (m *Manager) Cycle() {
	now := m.clock.Now()
	m.Cycles++
	for _, f := range m.ordered {
		target, violated := f.feasible(m.ri, now)
		switch {
		case target < f.current:
			// Safety-relevant: downgrade immediately.
			f.upStreak = 0
			f.switchTo(now, target, violated)
		case target > f.current:
			f.upStreak++
			if f.upStreak >= m.cfg.UpgradeStability {
				f.upStreak = 0
				f.switchTo(now, target, "")
			}
		default:
			f.upStreak = 0
		}
	}
}
