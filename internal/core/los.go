// Package core implements KARYON's primary contribution (paper Sec. III,
// Fig. 1): the Safety Kernel. A small, predictable component below the
// architecture's hybridization line that guarantees functional safety for
// an otherwise uncertain system by managing Levels of Service (LoS).
//
// The kernel is composed, as in Fig. 1, of:
//
//   - Design-Time Safety Information: per-LoS safety rules and actuation
//     envelopes fixed before deployment (Design); one design is shared,
//     read-only, by every vehicle built from it;
//   - Run-Time Safety Information: periodically collected validity /
//     health / timeliness indicators (RuntimeInfo);
//   - the Safety Manager: a bounded periodic cycle that evaluates rules
//     against runtime data, selects the highest LoS whose conditions hold
//     and reconfigures the nominal components (Manager);
//   - an actuation gate in the Simplex style: nominal control commands are
//     clamped to the envelope certified for the current LoS (Gate).
//
// LoS 1 has, by construction, no rules: it is the non-cooperative mode
// whose safety case stands on its own, so a safe level always exists.
package core

import (
	"fmt"
	"slices"

	"karyon/internal/sim"
)

// LoS is a Level of Service. Level 1 is the lowest (always safe,
// non-cooperative); higher levels unlock more performance under stricter
// run-time conditions.
type LoS int

// LevelSafe is the always-available fallback level.
const LevelSafe LoS = 1

// String renders the level.
func (l LoS) String() string { return fmt.Sprintf("LoS%d", int(l)) }

// Indicator is one piece of Run-Time Safety Information: a scalar (e.g. a
// sensor validity, a delivery ratio, a health flag) plus its collection
// time, so rules can require freshness.
type Indicator struct {
	Value     float64
	UpdatedAt sim.Time
}

// RuntimeInfo is the Run-Time Safety Information store. It abstracts the
// concrete collection mechanisms (failure detectors, validity pipelines,
// network monitors) behind a key → Indicator table. The keys are interned
// to slots (a keyTable), so a design's rules and a Key handle read and
// write an indicator by index. A store built from a shared Design uses the
// design's table and cannot add slots to it: keys outside it are kept
// apart, by name.
type RuntimeInfo struct {
	clock sim.Clock
	keys  *keyTable
	// vals holds the indicators by slot; a slot past its end was never set.
	vals []indicatorSlot
	// extra holds the indicators whose keys a shared table does not have;
	// nil until one is set.
	extra map[string]Indicator
}

// indicatorSlot is one slot's indicator and whether it was ever set.
type indicatorSlot struct {
	Indicator
	set bool
}

// keyTable interns indicator names to slots. A private table (a store
// built by NewRuntimeInfo) grows as keys are set or read by rules. A
// design's table is marked shared by the design's first Build, and from
// then on neither the table nor the design may change: shared stands for
// the whole design.
type keyTable struct {
	names  []string
	slot   map[string]int
	shared bool
}

// intern returns the key's slot, adding it if the table may grow; -1 for
// a key a shared table does not have.
func (t *keyTable) intern(key string) int {
	if i, ok := t.slot[key]; ok {
		return i
	}
	if t.shared {
		return -1
	}
	if t.slot == nil {
		t.slot = make(map[string]int)
	}
	t.slot[key] = len(t.names)
	t.names = append(t.names, key)
	return len(t.names) - 1
}

// Key is an indicator name resolved to its slot in a design's table: the
// handle through which a vehicle built from the design writes the
// indicator without a name lookup.
type Key struct {
	name string
	t    *keyTable
	i    int
}

// NewRuntimeInfo creates an empty store with a private key table. The
// clock is usually the kernel; sharded worlds pass the owning entity's
// clock so the store stays correct across shard handoffs.
func NewRuntimeInfo(clock sim.Clock) *RuntimeInfo {
	return &RuntimeInfo{clock: clock, keys: &keyTable{}}
}

// Set records the indicator value at the current instant.
func (ri *RuntimeInfo) Set(key string, value float64) {
	ri.store(ri.keys.intern(key), key, Indicator{Value: value, UpdatedAt: ri.clock.Now()})
}

// SetKey is Set through a resolved key. A key of another table falls back
// to Set by name.
func (ri *RuntimeInfo) SetKey(k Key, value float64) {
	if k.t != ri.keys {
		ri.Set(k.name, value)
		return
	}
	ri.store(k.i, k.name, Indicator{Value: value, UpdatedAt: ri.clock.Now()})
}

// store records ind in slot i, or, for a key the table has no slot for
// (i < 0), apart under its name.
func (ri *RuntimeInfo) store(i int, key string, ind Indicator) {
	if i < 0 {
		if ri.extra == nil {
			ri.extra = make(map[string]Indicator)
		}
		ri.extra[key] = ind
		return
	}
	if i >= len(ri.vals) {
		ri.vals = append(ri.vals, make([]indicatorSlot, i+1-len(ri.vals))...)
	}
	ri.vals[i] = indicatorSlot{ind, true}
}

// at returns the indicator in slot i and whether it has ever been set.
func (ri *RuntimeInfo) at(i int) (Indicator, bool) {
	if i < 0 || i >= len(ri.vals) {
		return Indicator{}, false
	}
	v := &ri.vals[i]
	return v.Indicator, v.set
}

// Get returns the indicator and whether it has ever been set.
func (ri *RuntimeInfo) Get(key string) (Indicator, bool) {
	if i, ok := ri.keys.slot[key]; ok {
		return ri.at(i)
	}
	ind, ok := ri.extra[key]
	return ind, ok
}

// Keys returns all indicator keys, sorted.
func (ri *RuntimeInfo) Keys() []string {
	return ri.appendKeys(make([]string, 0, len(ri.vals)+len(ri.extra)))
}

// appendKeys appends the keys of the set indicators to keys, sorted.
func (ri *RuntimeInfo) appendKeys(keys []string) []string {
	for i, v := range ri.vals {
		if v.set {
			keys = append(keys, ri.keys.names[i])
		}
	}
	for k := range ri.extra {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// clear forgets every indicator.
func (ri *RuntimeInfo) clear() {
	clear(ri.vals)
	clear(ri.extra)
}

// Rule is one design-time safety condition. Rules are attached to a LoS;
// operating at level L requires every rule of every level in 2..L to hold
// (conditions accumulate with performance).
type Rule struct {
	// Name identifies the rule in diagnostics and violation records.
	Name string
	// Check evaluates the rule against runtime information.
	Check func(ri *RuntimeInfo, now sim.Time) bool

	// The built-in rules judge one indicator: key names it, test judges
	// it, and slot is key's slot in the design the rule was added to, so
	// the manager's cycle reads it by index. A rule with a nil test is
	// evaluated through Check.
	key  string
	test func(ind Indicator, now sim.Time) bool
	slot int
}

// holds evaluates the rule against the store of a vehicle built from the
// design the rule belongs to.
func (r *Rule) holds(ri *RuntimeInfo, now sim.Time) bool {
	if r.test == nil {
		return r.Check(ri, now)
	}
	ind, ok := ri.at(r.slot)
	return ok && r.test(ind, now)
}

// indicatorRule builds a rule that holds when the key's indicator exists
// and passes test.
func indicatorRule(name, key string, test func(Indicator, sim.Time) bool) Rule {
	return Rule{
		Name: name,
		Check: func(ri *RuntimeInfo, now sim.Time) bool {
			ind, ok := ri.Get(key)
			return ok && test(ind, now)
		},
		key:  key,
		test: test,
	}
}

// MinValidity builds a rule requiring indicator key to exist with value at
// least min — the paper's "needed validity of (sensor) data".
func MinValidity(key string, min float64) Rule {
	return indicatorRule(fmt.Sprintf("%s>=%.2f", key, min), key,
		func(ind Indicator, _ sim.Time) bool { return ind.Value >= min })
}

// MaxAge builds a rule requiring indicator key to have been refreshed
// within maxAge — the paper's "integrity of components (e.g. timeliness
// requirements)".
func MaxAge(key string, maxAge sim.Time) Rule {
	return indicatorRule(fmt.Sprintf("%s fresh<%v", key, maxAge), key,
		func(ind Indicator, now sim.Time) bool { return now-ind.UpdatedAt <= maxAge })
}

// FlagSet builds a rule requiring a boolean indicator (≥ 0.5) — e.g. a
// component-health flag maintained by a failure detector.
func FlagSet(key string) Rule {
	return indicatorRule(fmt.Sprintf("%s set", key), key,
		func(ind Indicator, _ sim.Time) bool { return ind.Value >= 0.5 })
}

// And combines rules into one that holds only when all parts hold.
func And(name string, rules ...Rule) Rule {
	return Rule{
		Name: name,
		Check: func(ri *RuntimeInfo, now sim.Time) bool {
			for _, r := range rules {
				if !r.Check(ri, now) {
					return false
				}
			}
			return true
		},
	}
}
