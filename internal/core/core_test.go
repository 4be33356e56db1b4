package core

import (
	"errors"
	"testing"
	"testing/quick"

	"karyon/internal/sim"
	"karyon/internal/trace"
)

func newManager(t *testing.T, seed int64, cfg ManagerConfig) (*sim.Kernel, *Manager) {
	t.Helper()
	k := sim.NewKernel(seed)
	ri := NewRuntimeInfo(k)
	m, err := NewManager(k, ri, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k, m
}

func TestManagerValidation(t *testing.T) {
	k := sim.NewKernel(1)
	if _, err := NewManager(k, NewRuntimeInfo(k), ManagerConfig{Period: 0}); err == nil {
		t.Fatal("zero period accepted")
	}
}

func TestFunctionalityRegistration(t *testing.T) {
	_, m := newManager(t, 1, DefaultManagerConfig())
	f, err := m.AddFunctionality("acc", 3)
	if err != nil {
		t.Fatal(err)
	}
	if f.Current() != LevelSafe || f.Levels() != 3 || f.Name() != "acc" {
		t.Fatalf("functionality = %+v", f)
	}
	if _, err := m.AddFunctionality("acc", 3); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if _, err := m.AddFunctionality("bad", 0); err == nil {
		t.Fatal("zero levels accepted")
	}
	if got, ok := m.Functionality("acc"); !ok || got != f {
		t.Fatal("lookup failed")
	}
}

func TestRuleTargetsValidation(t *testing.T) {
	_, m := newManager(t, 1, DefaultManagerConfig())
	f, err := m.AddFunctionality("acc", 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.AddRule(LevelSafe, MinValidity("x", 0.5)); err == nil {
		t.Fatal("rule on LoS1 accepted — level 1 must be unconditional")
	}
	if err := f.AddRule(4, MinValidity("x", 0.5)); err == nil {
		t.Fatal("rule beyond levels accepted")
	}
	if err := f.AddRule(2, MinValidity("x", 0.5)); err != nil {
		t.Fatal(err)
	}
}

func TestUpgradeRequiresStability(t *testing.T) {
	cfg := ManagerConfig{Period: 10 * sim.Millisecond, UpgradeStability: 3}
	k, m := newManager(t, 1, cfg)
	f, err := m.AddFunctionality("acc", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.AddRule(2, MinValidity("sensor", 0.8)); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	m.Runtime().Set("sensor", 0.9)
	// Two cycles: still at safe level (stability = 3).
	k.RunFor(25 * sim.Millisecond)
	if f.Current() != LevelSafe {
		t.Fatalf("upgraded after %d cycles, want hysteresis", m.Cycles)
	}
	k.RunFor(20 * sim.Millisecond)
	if f.Current() != 2 {
		t.Fatalf("not upgraded after stability window: %v", f.Current())
	}
	if f.Switches != 1 || f.LastSwitch.From != 1 || f.LastSwitch.To != 2 {
		t.Fatalf("%d switches, last %+v", f.Switches, f.LastSwitch)
	}
}

func TestDowngradeIsImmediateAndBounded(t *testing.T) {
	cfg := ManagerConfig{Period: 10 * sim.Millisecond, UpgradeStability: 1}
	k, m := newManager(t, 2, cfg)
	f, err := m.AddFunctionality("acc", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.AddRule(2, MinValidity("sensor", 0.8)); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	m.Runtime().Set("sensor", 1.0)
	k.RunFor(50 * sim.Millisecond)
	if f.Current() != 2 {
		t.Fatal("setup: never upgraded")
	}
	// Violate the rule and measure detection latency.
	var violatedAt sim.Time
	k.Schedule(3*sim.Millisecond, func() {
		violatedAt = k.Now()
		m.Runtime().Set("sensor", 0.1)
	})
	k.RunFor(30 * sim.Millisecond)
	if f.Current() != LevelSafe {
		t.Fatal("never downgraded")
	}
	last := f.LastSwitch
	if last.To != LevelSafe {
		t.Fatalf("last switch %+v", last)
	}
	latency := last.At - violatedAt
	if latency > cfg.Period {
		t.Fatalf("downgrade latency %v exceeds the period bound %v", latency, cfg.Period)
	}
	if last.Reason == "" {
		t.Fatal("downgrade must record the violated rule")
	}
}

func TestCumulativeRules(t *testing.T) {
	cfg := ManagerConfig{Period: 10 * sim.Millisecond, UpgradeStability: 1}
	k, m := newManager(t, 3, cfg)
	f, err := m.AddFunctionality("acc", 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.AddRule(2, MinValidity("local", 0.5)); err != nil {
		t.Fatal(err)
	}
	if err := f.AddRule(3, MinValidity("remote", 0.5)); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	// Only the level-3 condition holds: level 2's failure caps us at 1.
	m.Runtime().Set("remote", 1.0)
	m.Runtime().Set("local", 0.0)
	k.RunFor(50 * sim.Millisecond)
	if f.Current() != LevelSafe {
		t.Fatalf("level = %v; level-3 rule must not bypass level-2 failure", f.Current())
	}
	m.Runtime().Set("local", 1.0)
	k.RunFor(50 * sim.Millisecond)
	if f.Current() != 3 {
		t.Fatalf("level = %v, want 3 with all rules holding", f.Current())
	}
}

func TestOnChangeFires(t *testing.T) {
	cfg := ManagerConfig{Period: 10 * sim.Millisecond, UpgradeStability: 1}
	k, m := newManager(t, 4, cfg)
	f, err := m.AddFunctionality("acc", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.AddRule(2, FlagSet("net")); err != nil {
		t.Fatal(err)
	}
	var calls []LoS
	f.OnChange(func(_, new LoS) { calls = append(calls, new) })
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	m.Runtime().Set("net", 1)
	k.RunFor(30 * sim.Millisecond)
	m.Runtime().Set("net", 0)
	k.RunFor(30 * sim.Millisecond)
	if len(calls) != 2 || calls[0] != 2 || calls[1] != 1 {
		t.Fatalf("onChange calls = %v, want [2 1]", calls)
	}
}

func TestMaxAgeRule(t *testing.T) {
	k := sim.NewKernel(5)
	ri := NewRuntimeInfo(k)
	r := MaxAge("heartbeat", 50*sim.Millisecond)
	ri.Set("heartbeat", 1)
	if !r.Check(ri, k.Now()) {
		t.Fatal("fresh indicator rejected")
	}
	k.Schedule(100*sim.Millisecond, func() {
		if r.Check(ri, k.Now()) {
			t.Error("stale indicator accepted")
		}
	})
	k.RunUntilIdle()
	if MaxAge("missing", sim.Second).Check(ri, k.Now()) {
		t.Fatal("missing indicator accepted")
	}
}

func TestAndRule(t *testing.T) {
	k := sim.NewKernel(6)
	ri := NewRuntimeInfo(k)
	r := And("both", MinValidity("a", 0.5), MinValidity("b", 0.5))
	ri.Set("a", 1)
	if r.Check(ri, 0) {
		t.Fatal("And held with a part missing")
	}
	ri.Set("b", 1)
	if !r.Check(ri, 0) {
		t.Fatal("And failed with all parts holding")
	}
}

func TestTimeAtAccounting(t *testing.T) {
	cfg := ManagerConfig{Period: 10 * sim.Millisecond, UpgradeStability: 1}
	k, m := newManager(t, 7, cfg)
	f, err := m.AddFunctionality("acc", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.AddRule(2, FlagSet("ok")); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	m.Runtime().Set("ok", 1)
	k.RunFor(sim.Second)
	now := k.Now()
	total := f.TimeAt(1, now) + f.TimeAt(2, now)
	if total != sim.Second {
		t.Fatalf("time accounting total %v, want 1s", total)
	}
	if f.TimeAt(2, now) < 900*sim.Millisecond {
		t.Fatalf("time at LoS2 = %v, want most of the run", f.TimeAt(2, now))
	}
}

func TestRuntimeInfoKeys(t *testing.T) {
	k := sim.NewKernel(8)
	ri := NewRuntimeInfo(k)
	ri.Set("b", 1)
	ri.Set("a", 2)
	keys := ri.Keys()
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Fatalf("keys = %v", keys)
	}
	if _, ok := ri.Get("zzz"); ok {
		t.Fatal("missing key reported present")
	}
}

func TestGateMissingEnvelopeRejected(t *testing.T) {
	_, m := newManager(t, 9, DefaultManagerConfig())
	f, err := m.AddFunctionality("acc", 2)
	if err != nil {
		t.Fatal(err)
	}
	envs := map[LoS]Envelope{1: NewEnvelope().Bound("accel", -3, 1)}
	if _, err := NewGate(f, envs); err == nil {
		t.Fatal("gate accepted with missing level-2 envelope")
	}
}

func TestGateClampsPerLevel(t *testing.T) {
	cfg := ManagerConfig{Period: 10 * sim.Millisecond, UpgradeStability: 1}
	k, m := newManager(t, 10, cfg)
	f, err := m.AddFunctionality("acc", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.AddRule(2, FlagSet("net")); err != nil {
		t.Fatal(err)
	}
	envs := map[LoS]Envelope{
		1: NewEnvelope().Bound("accel", -3, 0.5), // conservative
		2: NewEnvelope().Bound("accel", -6, 2.5), // cooperative
	}
	g, err := NewGate(f, envs)
	if err != nil {
		t.Fatal(err)
	}
	// At LoS1 an aggressive command is clamped.
	if out, clamped := g.Filter("accel", 2.0); !clamped || out != 0.5 {
		t.Fatalf("LoS1 filter -> %v clamped=%v", out, clamped)
	}
	// Raise to LoS2: the same command passes.
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	m.Runtime().Set("net", 1)
	k.RunFor(50 * sim.Millisecond)
	if f.Current() != 2 {
		t.Fatal("setup: not at LoS2")
	}
	if out, clamped := g.Filter("accel", 2.0); clamped || out != 2.0 {
		t.Fatalf("LoS2 filter -> %v clamped=%v", out, clamped)
	}
	if g.Clamped != 1 || g.Passed != 1 {
		t.Fatalf("gate stats %d/%d", g.Clamped, g.Passed)
	}
	// Unbounded channels pass through at any level.
	if out, clamped := g.Filter("horn", 99); clamped || out != 99 {
		t.Fatalf("unbounded channel clamped: %v %v", out, clamped)
	}
	chs := g.Channels(1)
	if len(chs) != 1 || chs[0] != "accel" {
		t.Fatalf("channels = %v", chs)
	}
}

// Property: whatever sequence of indicator values is applied, the manager
// never selects a level whose cumulative rules do not hold at evaluation
// time, and never leaves the valid range [1, levels].
func TestPropertyManagerSoundness(t *testing.T) {
	f := func(vals []float64) bool {
		k := sim.NewKernel(99)
		ri := NewRuntimeInfo(k)
		m, err := NewManager(k, ri, ManagerConfig{Period: sim.Millisecond, UpgradeStability: 1})
		if err != nil {
			return false
		}
		fn, err := m.AddFunctionality("f", 3)
		if err != nil {
			return false
		}
		if fn.AddRule(2, MinValidity("x", 0.3)) != nil {
			return false
		}
		if fn.AddRule(3, MinValidity("x", 0.7)) != nil {
			return false
		}
		ok := true
		for _, v := range vals {
			ri.Set("x", v)
			k.Schedule(0, func() {})
			k.Step()
			m.Cycle()
			cur := fn.Current()
			if cur < 1 || cur > 3 {
				ok = false
			}
			// Soundness: the selected level's cumulative rules hold, OR
			// the level is 1 (unconditional).
			if cur >= 2 && v < 0.3 {
				ok = false
			}
			if cur == 3 && v < 0.7 {
				ok = false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLoSString(t *testing.T) {
	if LoS(2).String() != "LoS2" {
		t.Fatal(LoS(2).String())
	}
}

// Property: whatever command the nominal controller produces, the gate's
// output lies within the current level's envelope — the Simplex guarantee.
func TestPropertyGateOutputWithinEnvelope(t *testing.T) {
	f := func(cmds []float64, flips []bool) bool {
		k := sim.NewKernel(3)
		ri := NewRuntimeInfo(k)
		m, err := NewManager(k, ri, ManagerConfig{Period: sim.Millisecond, UpgradeStability: 1})
		if err != nil {
			return false
		}
		fn, err := m.AddFunctionality("f", 2)
		if err != nil {
			return false
		}
		if fn.AddRule(2, FlagSet("ok")) != nil {
			return false
		}
		envs := map[LoS]Envelope{
			1: NewEnvelope().Bound("accel", -6, 0.5),
			2: NewEnvelope().Bound("accel", -6, 2.5),
		}
		g, err := NewGate(fn, envs)
		if err != nil {
			return false
		}
		for i, cmd := range cmds {
			if i < len(flips) {
				if flips[i] {
					ri.Set("ok", 1)
				} else {
					ri.Set("ok", 0)
				}
			}
			m.Cycle()
			out, _ := g.Filter("accel", cmd)
			env := envs[fn.Current()]
			if out < env.Min["accel"] || out > env.Max["accel"] {
				return false
			}
			// The gate never amplifies a command, only clamps it.
			if cmd >= env.Min["accel"] && cmd <= env.Max["accel"] && out != cmd {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Two kernels built from one design share its rules and envelopes but
// not their run-time state, and the design is frozen by the first Build.
func TestDesignBuildSharesDesignNotState(t *testing.T) {
	d, err := NewDesign("acc", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddRule(2, MinValidity("v", 0.5)); err != nil {
		t.Fatal(err)
	}
	if err := d.SetEnvelopes(map[LoS]Envelope{
		1: NewEnvelope().Bound("accel", -3, 0.5),
		2: NewEnvelope().Bound("accel", -6, 2.5),
	}); err != nil {
		t.Fatal(err)
	}
	key := d.Key("v")
	k := sim.NewKernel(1)
	cfg := ManagerConfig{Period: sim.Millisecond, UpgradeStability: 1}
	m1, g1, err := d.Build(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, g2, err := d.Build(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddRule(2, FlagSet("w")); !errors.Is(err, ErrShared) {
		t.Fatalf("AddRule after Build: %v, want ErrShared", err)
	}
	if err := d.SetEnvelopes(nil); !errors.Is(err, ErrShared) {
		t.Fatalf("SetEnvelopes after Build: %v, want ErrShared", err)
	}
	m1.Runtime().SetKey(key, 1)
	m1.Cycle()
	m2.Cycle()
	f1, f2 := m1.FunctionalityList()[0], m2.FunctionalityList()[0]
	if f1.Current() != 2 || f2.Current() != 1 {
		t.Fatalf("levels = %v, %v; want LoS2 for the kernel with valid data, LoS1 for the other", f1.Current(), f2.Current())
	}
	if out, _ := g1.Filter("accel", 2); out != 2 {
		t.Fatalf("gate at LoS2 clamped 2 to %v", out)
	}
	if out, _ := g2.Filter("accel", 2); out != 0.5 {
		t.Fatalf("gate at LoS1 let 2 through as %v", out)
	}
	// The codec carries the run-time state over between kernels of one design.
	var e trace.Enc
	m1.State(trace.Encoder(&e))
	m2.State(trace.Decoder(trace.NewDec(e.Bytes())))
	if f2.Current() != 2 {
		t.Fatalf("decoded kernel at %v, want LoS2", f2.Current())
	}
	if ind, ok := m2.Runtime().Get("v"); !ok || ind.Value != 1 {
		t.Fatalf("decoded indicator = %+v, %v", ind, ok)
	}
}
