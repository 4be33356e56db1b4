// Quickstart: the smallest complete KARYON loop — an abstract sensor with
// validity, a safety kernel with two Levels of Service, and a Simplex
// actuation gate. A fault is injected mid-run; watch the validity
// collapse, the kernel downgrade within one manager period, and the gate
// tighten the actuation envelope.
package main

import (
	"fmt"
	"os"

	"karyon/internal/core"
	"karyon/internal/sensor"
	"karyon/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	k := sim.NewKernel(1)

	// 1. An abstract sensor: a distance transducer (truth = 50 m) wrapped
	//    in MOSAIC-style fault management that derives a validity.
	phys := sensor.NewPhysical(k, "dist", func(sim.Time) float64 { return 50 }, 0.3)
	fm := sensor.NewFaultManagement(16,
		sensor.RangeDetector{Min: 0, Max: 200},
		sensor.StuckDetector{MinRepeats: 4},
		sensor.NoiseDetector{Sigma: 0.3, Tolerance: 4, MinWindow: 8},
	)
	dist := sensor.NewAbstract(k, phys, fm)

	// 2. A safety kernel: LoS2 (performance) requires validated
	//    perception; LoS1 is the unconditional fallback.
	ri := core.NewRuntimeInfo(k)
	mgr, err := core.NewManager(k, ri, core.ManagerConfig{
		Period:           10 * sim.Millisecond,
		UpgradeStability: 5,
	})
	if err != nil {
		return err
	}
	cruise, err := mgr.AddFunctionality("cruise", 2)
	if err != nil {
		return err
	}
	if err := cruise.AddRule(2, core.MinValidity("dist.validity", 0.7)); err != nil {
		return err
	}
	gate, err := core.NewGate(cruise, map[core.LoS]core.Envelope{
		1: core.NewEnvelope().Bound("accel", -6, 0.5),
		2: core.NewEnvelope().Bound("accel", -6, 2.0),
	})
	if err != nil {
		return err
	}
	// The manager counts switches and keeps the latest; the example keeps
	// the whole history itself.
	var history []core.Switch
	cruise.OnChange(func(_, _ core.LoS) { history = append(history, cruise.LastSwitch) })
	if err := mgr.Start(); err != nil {
		return err
	}

	// 3. A 100 Hz perception loop feeding the kernel.
	if _, err := k.Every(10*sim.Millisecond, func() {
		r := dist.Read()
		ri.Set("dist.validity", r.Validity)
	}); err != nil {
		return err
	}

	// 4. Observe: sample the system every 100 ms; a stuck-at fault hits
	//    at t = 500 ms and clears at t = 1.5 s.
	phys.Inject(sensor.Fault{
		Mode: sensor.FaultStuckAt,
		From: 500 * sim.Millisecond,
		To:   1500 * sim.Millisecond,
	})
	fmt.Println("   time   validity  LoS   gate(+2.0 m/s^2 request)")
	if _, err := k.Every(100*sim.Millisecond, func() {
		ind, _ := ri.Get("dist.validity")
		cmd, clamped := gate.Filter("accel", 2.0)
		mark := ""
		if clamped {
			mark = " (clamped)"
		}
		fmt.Printf("  %6s    %.2f     %v   %.1f%s\n",
			k.Now(), ind.Value, cruise.Current(), cmd, mark)
	}); err != nil {
		return err
	}

	k.RunFor(2500 * sim.Millisecond)

	fmt.Printf("\nswitch history: %d transitions\n", cruise.Switches)
	for _, sw := range history {
		reason := sw.Reason
		if reason == "" {
			reason = "conditions restored"
		}
		fmt.Printf("  t=%-8s %v -> %v  (%s)\n", sw.At, sw.From, sw.To, reason)
	}
	return nil
}
