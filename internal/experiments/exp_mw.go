package experiments

import (
	"fmt"

	"karyon/internal/coord"
	"karyon/internal/metrics"
	"karyon/internal/pubsub"
	"karyon/internal/sim"
	"karyon/internal/vehicle"
	"karyon/internal/wireless"
	"karyon/internal/world"
)

// e10 — event channels with QoS admission (Sec. V-B, Fig. 5): latency
// violation rates with and without announcement-time admission control on
// a degrading network, plus context-filter selectivity.
func e10() Experiment {
	return Experiment{
		ID:     "E10",
		Title:  "FAMOUSO event channels: admission removes QoS violations",
		Anchor: "Sec. V-B, Fig. 5",
		Run:    runE10,
	}
}

func runE10(cfg Config) *metrics.Result {
	dur := cfg.dur(20*sim.Second, 6*sim.Second)
	res := metrics.NewResult("E10 - QoS promises vs delivery, with/without channel admission (reliability promise 0.9)")
	const subj pubsub.Subject = 0x10
	run := func(name string, loss float64, jammed, admission bool) {
		k := sim.NewKernel(cfg.Seed)
		mcfg := wireless.DefaultConfig()
		mcfg.LossProb = loss
		medium := wireless.NewMedium(k, mcfg)
		r1, err := medium.Attach(1, wireless.Position{})
		if err != nil {
			return
		}
		r2, err := medium.Attach(2, wireless.Position{X: 50})
		if err != nil {
			return
		}
		t1 := pubsub.NewRadioTransport(k, medium, r1)
		t2 := pubsub.NewRadioTransport(k, medium, r2)
		pubBroker := pubsub.NewBroker(k, 1, t1, admission)
		subBroker := pubsub.NewBroker(k, 2, t2, admission)
		if jammed {
			medium.Jam(0, sim.Hour) // persistent interference
		}
		// Dynamic assessment needs observed traffic: probe the network
		// before announcing, as the announcement process prescribes.
		for i := 0; i < 200; i++ {
			k.Schedule(sim.Time(i)*sim.Millisecond, func() {
				t1.Broadcast(pubsub.Event{Subject: 0xFF})
			})
		}
		k.RunFor(300 * sim.Millisecond)

		sub := subBroker.Subscribe(subj, nil, nil)
		accepted := false
		ch, err := pubBroker.Announce(subj, pubsub.Quality{
			MaxLatency:  5 * sim.Millisecond,
			Reliability: 0.9,
		})
		if err == nil {
			accepted = true
		}
		if ch != nil {
			t, terr := k.Every(50*sim.Millisecond, func() {
				ch.Publish(1.0, pubsub.Context{})
			})
			if terr == nil {
				defer t.Stop()
			}
		}
		k.RunFor(dur)
		adm := "off"
		if admission {
			adm = "on"
		}
		published := int64(0)
		if ch != nil {
			published = ch.Published
		}
		achieved := 0.0
		if published > 0 {
			achieved = float64(sub.Received) / float64(published)
		}
		rec := res.Record("network", name, "admission", adm).
			Bool("accepted", accepted).
			Int("delivered", sub.Received).
			Int("published", published).
			Val("achieved", achieved, metrics.Pct)
		if accepted {
			rec.Bool("promise kept", achieved >= 0.9 && sub.LateEvents == 0)
		} else {
			rec.MissingVal("promise kept", metrics.Bool)
		}
	}
	run("healthy", 0, false, true)
	run("healthy", 0, false, false)
	run("lossy 40%", 0.4, false, true)
	run("lossy 40%", 0.4, false, false)
	run("jammed", 0, true, true)
	run("jammed", 0, true, false)
	res.AddNote("expected: admission accepts only channels whose promise the assessed network can keep; without admission the lossy/jammed runs accept and then break the 0.9 reliability promise")
	return res
}

// e11 — maneuver agreement vs packet loss (Sec. V-C): success rate,
// latency, and the zero-conflicting-grants invariant.
func e11() Experiment {
	return Experiment{
		ID:       "E11",
		Title:    "Cooperation-state agreement vs packet loss",
		Anchor:   "Sec. V-C ([24] Le Lann cohorts)",
		Replicas: 5,
		Run:      runE11,
	}
}

func runE11(cfg Config) *metrics.Result {
	attempts := cfg.n(200, 40)
	res := metrics.NewResult(fmt.Sprintf(
		"E11 - reservation outcomes vs loss (10 vehicles, %d attempts)", attempts))
	losses := []float64{0, 0.1, 0.2, 0.4, 0.6}
	if cfg.Short {
		losses = []float64{0, 0.4}
	}
	for _, loss := range losses {
		k := sim.NewKernel(cfg.Seed)
		mcfg := wireless.DefaultConfig()
		mcfg.LossProb = loss
		medium := wireless.NewMedium(k, mcfg)
		n := 10
		all := func() []wireless.NodeID {
			ids := make([]wireless.NodeID, n)
			for i := range ids {
				ids[i] = wireless.NodeID(i)
			}
			return ids
		}
		var nodes []*coord.Agreement
		for i := 0; i < n; i++ {
			radio, err := medium.Attach(wireless.NodeID(i), wireless.Position{X: float64(i) * 10})
			if err != nil {
				continue
			}
			a := coord.NewAgreement(k, radio, coord.DefaultAgreementConfig(), all)
			radio.OnReceive(a.OnFrame)
			nodes = append(nodes, a)
		}
		var granted, denied, timeout, doubles int64
		var lat metrics.Histogram
		resName := coord.Resource("lane-change")
		for attempt := 0; attempt < attempts; attempt++ {
			requester := nodes[k.Rand().Intn(n)]
			start := k.Now()
			var outcome coord.Outcome
			requester.Request(resName, func(o coord.Outcome) {
				outcome = o
				if o == coord.OutcomeGranted {
					lat.Observe(float64(k.Now()-start) / float64(sim.Millisecond))
				}
			})
			k.RunFor(400 * sim.Millisecond)
			switch outcome {
			case coord.OutcomeGranted:
				granted++
				// Invariant probe: nobody else may hold it now.
				holders := 0
				for _, nd := range nodes {
					if nd.Holds(resName) {
						holders++
					}
				}
				if holders > 1 {
					doubles++
				}
				requester.Release(resName)
				k.RunFor(100 * sim.Millisecond)
			case coord.OutcomeDenied:
				denied++
			case coord.OutcomeTimeout:
				timeout++
			}
			k.RunFor(100 * sim.Millisecond)
		}
		res.Record("loss", metrics.FmtPct(loss)).
			Int("granted", granted).
			Int("denied", denied).
			Int("timeout", timeout).
			Val("grant latency p95 ms", lat.Percentile(95), metrics.F2).
			Int("double grants", doubles)
	}
	res.AddNote("invariant: double grants 0 at every loss level; loss converts grants into timeouts (safe aborts)")
	return res
}

// e14 — coordinated lane change (Sec. VI-A3): at-most-one-in-region
// invariant and abort rates, with maneuvers actually executed.
func e14() Experiment {
	return Experiment{
		ID:       "E14",
		Title:    "Coordinated lane change: at most one maneuver per region",
		Anchor:   "Sec. VI-A3",
		Replicas: 5,
		Run:      runE14,
	}
}

func runE14(cfg Config) *metrics.Result {
	dur := cfg.dur(60*sim.Second, 15*sim.Second)
	res := metrics.NewResult(fmt.Sprintf(
		"E14 - lane-change maneuvers (12 vehicles, 3 lanes, %s per loss level)", dur.String()))
	losses := []float64{0, 0.2, 0.4}
	if cfg.Short {
		losses = []float64{0, 0.4}
	}
	for _, loss := range losses {
		k := sim.NewKernel(cfg.Seed)
		mcfg := wireless.DefaultConfig()
		mcfg.LossProb = loss
		medium := wireless.NewMedium(k, mcfg)
		n := 12
		type lcVehicle struct {
			agree    *coord.Agreement
			maneuver vehicle.Maneuver
			body     vehicle.Body
		}
		all := func() []wireless.NodeID {
			ids := make([]wireless.NodeID, n)
			for i := range ids {
				ids[i] = wireless.NodeID(i)
			}
			return ids
		}
		vehicles := make([]*lcVehicle, 0, n)
		for i := 0; i < n; i++ {
			radio, err := medium.Attach(wireless.NodeID(i), wireless.Position{X: float64(i) * 20})
			if err != nil {
				continue
			}
			v := &lcVehicle{
				agree: coord.NewAgreement(k, radio, coord.DefaultAgreementConfig(), all),
				body:  vehicle.Body{X: float64(i) * 20, Lane: i % 3, Speed: 25},
			}
			radio.OnReceive(v.agree.OnFrame)
			vehicles = append(vehicles, v)
		}
		region := coord.Resource("region-0")
		var attempts, completed, rejected int64
		maxConcurrent := 0
		// Drive loop: every 100 ms advance maneuvers and count concurrency.
		drive, err := k.Every(100*sim.Millisecond, func() {
			active := 0
			for _, v := range vehicles {
				if v.maneuver.Active() {
					active++
					if v.maneuver.Step(&v.body, 0.1) {
						v.agree.Release(region)
					}
				}
			}
			if active > maxConcurrent {
				maxConcurrent = active
			}
		})
		if err != nil {
			continue
		}
		// Attempt generator: random vehicle requests the region, begins
		// the maneuver only when granted.
		gen, err := k.Every(500*sim.Millisecond, func() {
			v := vehicles[k.Rand().Intn(n)]
			if v.maneuver.Active() {
				return
			}
			attempts++
			target := (v.body.Lane + 1) % 3
			v.agree.Request(region, func(o coord.Outcome) {
				if o != coord.OutcomeGranted {
					rejected++
					return
				}
				if err := v.maneuver.Begin(target, 3); err != nil {
					v.agree.Release(region)
					return
				}
				completed++ // counted at grant; Step finishes the motion
			})
		})
		if err != nil {
			continue
		}
		k.RunFor(dur)
		drive.Stop()
		gen.Stop()
		res.Record("loss", metrics.FmtPct(loss)).
			Int("attempts", attempts).
			Int("completed", completed).
			Int("aborted/denied", rejected).
			Int("max concurrent", int64(maxConcurrent)).
			Bool("invariant held", maxConcurrent <= 1)
	}
	res.AddNote("invariant: at most one vehicle changing lanes in the region at any instant, at every loss level")
	// Integrated variant: the full multi-lane highway world, where lane
	// changes are embedded in the perceive-assess-decide-actuate loop and
	// a slow truck forces overtaking.
	hcfg := world.DefaultHighwayConfig()
	hcfg.Cars = 10
	hcfg.Length = 1500
	hcfg.Lanes = 2
	if h, err := world.BuildHighway(cfg.Seed, cfg.shards(), hcfg); err == nil {
		h.Cars()[0].SetCruiseSpeed(10)
		if err := h.Start(); err == nil {
			_ = h.Run(cfg.dur(3*sim.Minute, 40*sim.Second))
			var changes int64
			for _, c := range h.Cars() {
				changes += c.LaneChanges
			}
			res.Record("loss", "integrated 2-lane").
				Int("lane changes", changes).
				Int("highway collisions", h.Collisions).
				Val("mean speed m/s", h.MeanSpeed(), metrics.F2)
		}
	}
	res.AddNote("integrated 2-lane: full highway world with a slow truck forcing overtakes")
	return res
}
