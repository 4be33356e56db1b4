package experiments

import (
	"context"
	"fmt"

	"karyon/internal/core"
	"karyon/internal/faultinject"
	"karyon/internal/metrics"
	"karyon/internal/sim"
	"karyon/internal/world"
)

// e1 — Safety Manager cycle: LoS switch latency under fault bursts
// (Fig. 1, Sec. III). The design-time argument requires switch latency
// bounded by the manager period; the records report the measured
// distribution.
func e1() Experiment {
	return Experiment{
		ID:     "E1",
		Title:  "Safety kernel: LoS switch latency bound",
		Anchor: "Fig. 1, Sec. III",
		Run:    runE1,
	}
}

func runE1(cfg Config) *metrics.Result {
	res := metrics.NewResult("E1 - LoS switch latency vs manager period")
	periods := []sim.Time{5 * sim.Millisecond, 10 * sim.Millisecond,
		20 * sim.Millisecond, 50 * sim.Millisecond}
	if cfg.Short {
		periods = periods[:2]
	}
	bursts := cfg.n(200, 25)
	for _, period := range periods {
		k := sim.NewKernel(cfg.Seed)
		ri := core.NewRuntimeInfo(k)
		mgr, err := core.NewManager(k, ri, core.ManagerConfig{Period: period, UpgradeStability: 2})
		if err != nil {
			res.AddNote("period %v: %v", period, err)
			continue
		}
		fn, err := mgr.AddFunctionality("f", 3)
		if err != nil {
			continue
		}
		_ = fn.AddRule(2, core.MinValidity("x", 0.5))
		_ = fn.AddRule(3, core.MinValidity("x", 0.9))
		if err := mgr.Start(); err != nil {
			continue
		}
		ri.Set("x", 1)

		var lats metrics.Histogram
		downs := 0
		// Fault bursts: x collapses at random instants; measure time from
		// collapse to the manager's downswitch.
		for i := 0; i < bursts; i++ {
			gap := sim.Time(k.Rand().Int63n(int64(200*sim.Millisecond))) + 100*sim.Millisecond
			k.RunFor(gap) // recover window
			ri.Set("x", 1)
			k.RunFor(20 * period) // let it climb back
			violateAt := k.Now()
			ri.Set("x", 0.1)
			pre := len(fn.Switches)
			k.RunFor(2 * period)
			if len(fn.Switches) > pre {
				sw := fn.Switches[len(fn.Switches)-1]
				if sw.To < sw.From {
					downs++
					lats.Observe(float64(sw.At-violateAt) / float64(sim.Millisecond))
				}
			}
		}
		bound := float64(period) / float64(sim.Millisecond)
		res.Record("period", period.String()).
			Int("downswitches", int64(downs)).
			Val("lat.mean", lats.Mean(), metrics.Ms).
			Val("lat.p99", lats.Percentile(99), metrics.Ms).
			Val("lat.max", lats.Max(), metrics.Ms).
			Bool("bound.ok", lats.Max() <= bound)
	}
	res.AddNote("bound.ok: max observed latency <= manager period (the design-time guarantee)")
	return res
}

// e2 — the performance-safety trade-off: highway flow per LoS policy
// (Sec. III). Expected shape: flow(LoS3) > flow(LoS2) > flow(LoS1);
// adaptive tracks the best feasible level; collisions zero everywhere
// except the reckless baseline under faults.
func e2() Experiment {
	return Experiment{
		ID:     "E2",
		Title:  "Performance-safety trade-off: flow per LoS policy",
		Anchor: "Sec. III (LoS concept)",
		Run:    runE2,
	}
}

func runE2(cfg Config) *metrics.Result {
	cars := cfg.n(50, 16)
	warm := cfg.dur(30*sim.Second, 8*sim.Second)
	measure := cfg.dur(90*sim.Second, 20*sim.Second)
	ringM := 30 * float64(cars)
	res := metrics.NewResult(fmt.Sprintf(
		"E2 - highway flow and safety per LoS policy (%d cars, %.1f km ring, %s)",
		cars, ringM/1000, (warm + measure).String()))
	variant := int64(0)
	run := func(name string, mode world.LoSMode, fixed core.LoS, faults, v2v bool) {
		variant++
		hcfg := world.DefaultHighwayConfig()
		// Dense enough that the LoS time gap binds: mean spacing 30 m is
		// below the LoS1 desired gap at cruise speed, so the headway
		// policy — not the speed limit — sets the equilibrium flow.
		hcfg.Cars = cars
		hcfg.Length = ringM
		hcfg.Mode = mode
		hcfg.FixedLoS = fixed
		hcfg.Medium = cfg.Medium
		hcfg.CarrierSense = cfg.Medium
		if !v2v {
			hcfg.V2VPeriod = 0
		}
		h, err := world.BuildHighway(cfg.Seed, cfg.shards(), hcfg)
		if err != nil {
			res.AddNote("%s: %v", name, err)
			return
		}
		if err := h.Start(); err != nil {
			return
		}
		if err := h.Run(warm); err != nil {
			res.AddNote("%s: %v", name, err)
			return
		}
		if faults {
			campaign, err := faultinject.Generate(sim.NewStream(cfg.Seed, variant, 11).Rand,
				faultinject.GenerateConfig{
					Duration: measure, Warmup: sim.Second,
					Events: cfg.n(60, 15), Targets: hcfg.Cars,
				})
			if err == nil {
				if _, err := faultinject.RunOnHighway(context.Background(), h, campaign, measure); err != nil {
					res.AddNote("%s: %v", name, err)
					return
				}
			}
		} else if err := h.Run(measure); err != nil {
			res.AddNote("%s: %v", name, err)
			return
		}
		res.Record("policy", name).
			Val("flow veh/h", h.Flow(), metrics.F2).
			Val("mean speed", h.MeanSpeed(), metrics.F2).
			Val("p5 timegap", h.TimeGaps.Percentile(5), metrics.F2).
			Int("collisions", h.Collisions)
	}
	run("fixed LoS1 (non-coop)", world.ModeFixed, 1, false, true)
	run("fixed LoS2 (validated)", world.ModeFixed, 2, false, true)
	run("fixed LoS3 (cooperative)", world.ModeFixed, 3, false, true)
	run("adaptive (KARYON)", world.ModeAdaptive, 0, false, true)
	run("adaptive + faults", world.ModeAdaptive, 0, true, true)
	run("reckless + faults", world.ModeReckless, 3, true, true)
	run("adaptive + faults, no V2V", world.ModeAdaptive, 0, true, false)
	run("reckless + faults, no V2V", world.ModeReckless, 3, true, false)
	res.AddNote("expected shape: flow rises with LoS; adaptive tracks the best feasible level")
	res.AddNote("with V2V, even the reckless baseline is often rescued by cooperative lead-speed data; removing V2V isolates the perception path, where only the kernel's validity-gated fallback prevents collisions")
	return res
}

// e12 — ACC/platooning use case under an ISO 26262-style campaign
// (Sec. VI-A1).
func e12() Experiment {
	return Experiment{
		ID:       "E12",
		Title:    "Platooning under fault-injection campaigns",
		Anchor:   "Sec. VI-A1 (ACC use case), Sec. I (ISO 26262 assessment)",
		Replicas: 3,
		Run:      runE12,
	}
}

func runE12(cfg Config) *metrics.Result {
	campaigns := cfg.n(4, 2)
	dur := cfg.dur(3*sim.Minute, 30*sim.Second)
	res := metrics.NewResult(fmt.Sprintf(
		"E12 - 30-car platoon, randomized campaigns (%s each)", dur.String()))
	for c := 0; c < campaigns; c++ {
		hcfg := world.DefaultHighwayConfig()
		hcfg.Medium = cfg.Medium
		hcfg.CarrierSense = cfg.Medium
		h, err := world.BuildHighway(cfg.Seed+int64(c), cfg.shards(), hcfg)
		if err != nil {
			res.AddNote("campaign %d: %v", c, err)
			continue
		}
		if err := h.Start(); err != nil {
			continue
		}
		if err := h.Run(cfg.dur(20*sim.Second, 5*sim.Second)); err != nil {
			continue
		}
		campaign, err := faultinject.Generate(sim.NewStream(cfg.Seed+int64(c), 0, 11).Rand,
			faultinject.GenerateConfig{
				Duration: dur, Warmup: sim.Second,
				Events: cfg.n(30, 8), Targets: hcfg.Cars,
			})
		if err != nil {
			continue
		}
		rep, err := faultinject.RunOnHighway(context.Background(), h, campaign, dur+10*sim.Second)
		if err != nil {
			res.AddNote("campaign %d: %v", c, err)
			continue
		}
		res.Record("campaign", fmt.Sprintf("campaign %d", c)).
			Int("faults", int64(len(campaign.Events))).
			Int("collisions", rep.Collisions).
			Val("coverage", rep.Coverage(), metrics.Pct).
			Val("det.p95 ms", rep.DetectionLatencies.Percentile(95), metrics.F2).
			Val("downgrade.p95 ms", rep.DowngradeLatencies.Percentile(95), metrics.F2)
	}
	res.AddNote("safety goal: zero collisions in every campaign (paper's functional-safety claim)")
	return res
}
