package world

import (
	"errors"
	"testing"

	"karyon/internal/core"
	"karyon/internal/sim"
)

// TestSharedDesignIsFrozen edits the safety kernel's design through one
// car of a built world. Every car shares that design, so each edit — a
// rule, a functionality, a gate bound on a known or a new channel — must
// fail with core.ErrShared and leave every car's rules and envelopes as
// they were. An indicator the design does not name stays the car's own.
func TestSharedDesignIsFrozen(t *testing.T) {
	cfg := DefaultHighwayConfig()
	cfg.Cars = 4
	cfg.Length = 400
	h := buildHighway(t, 1, 1, cfg)
	c0, c1 := h.cars[0], h.cars[1]
	if err := c0.fn.AddRule(2, core.FlagSet("never")); !errors.Is(err, core.ErrShared) {
		t.Fatalf("AddRule through a built car: %v, want ErrShared", err)
	}
	if _, err := c0.Manager().AddFunctionality("extra", 2); !errors.Is(err, core.ErrShared) {
		t.Fatalf("AddFunctionality through a built car: %v, want ErrShared", err)
	}
	for _, ch := range []string{"accel", "steer"} {
		if err := c0.Gate().Bound(1, ch, -100, 100); !errors.Is(err, core.ErrShared) {
			t.Fatalf("Bound(%q) through a built car: %v, want ErrShared", ch, err)
		}
	}
	// Both cars still clamp to the LoS1 envelope and bound no new channel.
	for _, c := range []*Car{c0, c1} {
		if out, clamped := c.Gate().Filter("accel", 5); !clamped || out != 1 {
			t.Fatalf("car %d: Filter(accel, 5) at LoS1 = %v, %v; want 1, clamped", c.ID, out, clamped)
		}
		if out, clamped := c.Gate().Filter("steer", 500); clamped || out != 500 {
			t.Fatalf("car %d: Filter(steer, 500) = %v, %v; want it unbounded", c.ID, out, clamped)
		}
	}
	// The rejected rule never reached level 2: with valid distance data a
	// car climbs to it after the upgrade hysteresis.
	ri := c1.Manager().Runtime()
	ri.Set("dist.validity", 1)
	for i := 0; i < 5; i++ {
		c1.Manager().Cycle()
	}
	if got := c1.LoS(); got != 2 {
		t.Fatalf("car 1 at %v after five cycles with valid data, want LoS2", got)
	}
	// An indicator outside the design is one car's alone.
	c0.Manager().Runtime().Set("other", 1)
	if _, ok := ri.Get("other"); ok {
		t.Fatal("an indicator set on car 0 shows on car 1")
	}
	if ind, ok := c0.Manager().Runtime().Get("other"); !ok || ind.Value != 1 || ind.UpdatedAt != sim.Time(0) {
		t.Fatalf("car 0's own indicator = %+v, %v", ind, ok)
	}
}
