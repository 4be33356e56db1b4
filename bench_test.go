// Benchmarks: one per experiment of README.md's "Experiments" section
// (E1..E15). Each bench regenerates its experiment's workload — scaled to
// a per-iteration size — so `go test -bench=.` reproduces the shape of
// every table/figure-equivalent, and reports how expensive each subsystem
// is to simulate.
//
// Additional ablation benches at the bottom measure the design choices
// docs/ARCHITECTURE.md calls out (validity pipeline cost, gate cost,
// event-channel dispatch, kernel event throughput).
package main

import (
	"context"
	"math"
	"runtime"
	"testing"

	"karyon/internal/avionics"
	"karyon/internal/coord"
	"karyon/internal/core"
	"karyon/internal/experiments"
	"karyon/internal/faultinject"
	"karyon/internal/harness"
	"karyon/internal/inaccess"
	"karyon/internal/mac"
	"karyon/internal/pubsub"
	"karyon/internal/sensor"
	"karyon/internal/sim"
	"karyon/internal/stabilize"
	"karyon/internal/vehicle"
	"karyon/internal/wireless"
	"karyon/internal/world"
)

// BenchmarkE1SafetyKernelCycle measures one Safety Manager evaluation
// cycle over a 3-level functionality with realistic rules (E1: the bounded
// cycle the design-time safety argument rests on).
func BenchmarkE1SafetyKernelCycle(b *testing.B) {
	k := sim.NewKernel(1)
	ri := core.NewRuntimeInfo(k)
	mgr, err := core.NewManager(k, ri, core.DefaultManagerConfig())
	if err != nil {
		b.Fatal(err)
	}
	fn, err := mgr.AddFunctionality("f", 3)
	if err != nil {
		b.Fatal(err)
	}
	_ = fn.AddRule(2, core.MinValidity("a", 0.5))
	_ = fn.AddRule(2, core.MaxAge("a", sim.Second))
	_ = fn.AddRule(3, core.MinValidity("b", 0.8))
	_ = fn.AddRule(3, core.FlagSet("net"))
	ri.Set("a", 1)
	ri.Set("b", 1)
	ri.Set("net", 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mgr.Cycle()
	}
}

// BenchmarkE2AdaptiveLoS runs a 10-car adaptive highway for one simulated
// second per iteration (E2: the trade-off scenario's simulation cost).
func BenchmarkE2AdaptiveLoS(b *testing.B) {
	cfg := world.DefaultHighwayConfig()
	cfg.Cars = 10
	cfg.Length = 1000
	h, err := world.BuildHighway(1, 1, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := h.Start(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Run(sim.Second); err != nil {
			b.Fatal(err)
		}
	}
	if h.Collisions != 0 {
		b.Fatalf("collisions during bench: %d", h.Collisions)
	}
}

// BenchmarkE3ValidityPipeline measures one full abstract-sensor read
// (sample + 5 detectors + fault management) — E3's unit of work.
func BenchmarkE3ValidityPipeline(b *testing.B) {
	k := sim.NewKernel(1)
	phys := sensor.NewPhysical(k, "d", func(t sim.Time) float64 {
		return 50 + 20*math.Sin(t.Seconds())
	}, 0.3)
	fm := sensor.NewFaultManagement(16,
		sensor.RangeDetector{Min: 0, Max: 500},
		sensor.FreshnessDetector{MaxAge: 100 * sim.Millisecond},
		sensor.StuckDetector{MinRepeats: 4},
		sensor.NoiseDetector{Sigma: 0.3, Tolerance: 4, MinWindow: 8},
		sensor.RateDetector{MaxRate: 50},
	)
	a := sensor.NewAbstract(k, phys, fm)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Read()
	}
}

// BenchmarkE4Fusion measures Marzullo fusion over 5 intervals with f=1
// (E4's fusion operator).
func BenchmarkE4Fusion(b *testing.B) {
	ivs := []sensor.Interval{
		{Lo: 9, Hi: 11}, {Lo: 9.5, Hi: 11.5}, {Lo: 8.8, Hi: 10.8},
		{Lo: 50, Hi: 52}, {Lo: 9.2, Hi: 11.2},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sensor.Marzullo(ivs, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5Inaccessibility runs a 4-node R2T-MAC fleet through one
// jam-and-recover cycle per iteration (E5).
func BenchmarkE5Inaccessibility(b *testing.B) {
	k := sim.NewKernel(1)
	mcfg := wireless.DefaultConfig()
	mcfg.Channels = 4
	medium := wireless.NewMedium(k, mcfg)
	cfg := inaccess.DefaultConfig()
	for i := 0; i < 4; i++ {
		radio, err := medium.Attach(wireless.NodeID(i), wireless.Position{X: float64(i) * 10})
		if err != nil {
			b.Fatal(err)
		}
		med, err := inaccess.New(k, medium, radio, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := med.Start(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		medium.Jam(0, 50*sim.Millisecond)
		k.RunFor(200 * sim.Millisecond)
	}
}

// BenchmarkE6TDMAConvergence converges an 8-node TDMA clique from scratch
// per iteration (E6).
func BenchmarkE6TDMAConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel(int64(i + 1))
		mcfg := wireless.DefaultConfig()
		mcfg.Airtime = 200 * sim.Microsecond
		medium := wireless.NewMedium(k, mcfg)
		cfg := mac.DefaultTDMAConfig()
		nw := mac.NewTDMANetwork(k, medium, cfg)
		for n := 0; n < 8; n++ {
			node, err := nw.AddNode(wireless.NodeID(n), wireless.Position{X: float64(n) * 10})
			if err != nil {
				b.Fatal(err)
			}
			node.Start()
		}
		frame := sim.Time(cfg.Slots) * cfg.SlotDuration
		for f := 0; f < 400 && !nw.Converged(); f++ {
			k.RunFor(frame)
		}
		if !nw.Converged() {
			b.Fatal("TDMA did not converge")
		}
	}
}

// BenchmarkE7PulseSync runs 8 drifting clocks for one simulated second per
// iteration (E7).
func BenchmarkE7PulseSync(b *testing.B) {
	k := sim.NewKernel(1)
	medium := wireless.NewMedium(k, wireless.DefaultConfig())
	cfg := mac.DefaultPulseConfig()
	var nodes []*mac.PulseNode
	for i := 0; i < 8; i++ {
		radio, err := medium.Attach(wireless.NodeID(i), wireless.Position{X: float64(i) * 10})
		if err != nil {
			b.Fatal(err)
		}
		clock := sim.NewDriftClock(k, (k.Rand().Float64()*2-1)*50e-6, 0)
		node, err := mac.NewPulseNode(k, radio, clock, cfg)
		if err != nil {
			b.Fatal(err)
		}
		node.Start()
		nodes = append(nodes, node)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.RunFor(sim.Second)
		_ = mac.MaxPairwiseError(nodes, cfg.Period)
	}
}

// BenchmarkE8EndToEnd measures delivered messages over the adversarial
// channel, one simulated second per iteration (E8).
func BenchmarkE8EndToEnd(b *testing.B) {
	k := sim.NewKernel(1)
	cfg := stabilize.DefaultE2EConfig()
	lcfg := wireless.LinkConfig{
		Delay: sim.Millisecond, LossProb: 0.2, DupProb: 0.1,
		ReorderProb: 0.1, ReorderDelay: 5 * sim.Millisecond, Capacity: cfg.Capacity,
	}
	var recv *stabilize.Receiver
	fwd := wireless.NewLink(k, lcfg, func(p any) {
		if pkt, ok := p.(stabilize.Packet); ok {
			recv.OnPacket(pkt)
		}
	})
	var snd *stabilize.Sender
	back := wireless.NewLink(k, lcfg, func(p any) {
		if pkt, ok := p.(stabilize.Packet); ok {
			snd.OnAck(pkt)
		}
	})
	recv, err := stabilize.NewReceiver(k, back, cfg, func(any) {})
	if err != nil {
		b.Fatal(err)
	}
	snd, err = stabilize.NewSender(k, fwd, cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1<<20; i++ {
		snd.Enqueue(i)
	}
	if err := snd.Start(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.RunFor(sim.Second)
	}
	b.ReportMetric(float64(recv.Delivered)/float64(b.N), "msgs/simsec")
}

// BenchmarkE9TopologyDiscovery computes vertex-disjoint paths on a 5x5
// grid graph per iteration (E9's analysis step).
func BenchmarkE9TopologyDiscovery(b *testing.B) {
	graph := map[wireless.NodeID][]wireless.NodeID{}
	cols, rows := 5, 5
	id := func(c, r int) wireless.NodeID { return wireless.NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			var nbs []wireless.NodeID
			if c > 0 {
				nbs = append(nbs, id(c-1, r))
			}
			if c < cols-1 {
				nbs = append(nbs, id(c+1, r))
			}
			if r > 0 {
				nbs = append(nbs, id(c, r-1))
			}
			if r < rows-1 {
				nbs = append(nbs, id(c, r+1))
			}
			graph[id(c, r)] = nbs
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := stabilize.VertexDisjointPaths(graph, 0, wireless.NodeID(cols*rows-1)); got != 2 {
			b.Fatalf("paths = %d", got)
		}
	}
}

// BenchmarkE10EventChannels measures publish -> filter -> deliver through
// a broker pair on the local bus (E10's dispatch path).
func BenchmarkE10EventChannels(b *testing.B) {
	k := sim.NewKernel(1)
	bus := wireless.NewBus(k, 100*sim.Microsecond)
	pb := pubsub.NewBroker(k, 1, pubsub.NewBusTransport(bus, 1, 100*sim.Microsecond), true)
	sb := pubsub.NewBroker(k, 2, pubsub.NewBusTransport(bus, 2, 100*sim.Microsecond), true)
	ch, err := pb.Announce(0x10, pubsub.Quality{MaxLatency: sim.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	delivered := 0
	sb.Subscribe(0x10, pubsub.WithinRadius(wireless.Position{}, 100), func(pubsub.Event) {
		delivered++
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Publish(float64(i), pubsub.Context{Position: wireless.Position{X: 10}})
		k.RunUntilIdle()
	}
	if delivered == 0 {
		b.Fatal("nothing delivered")
	}
}

// BenchmarkE11Agreement completes one full reservation round (request,
// unanimous grant, release) among 5 nodes per iteration (E11).
func BenchmarkE11Agreement(b *testing.B) {
	k := sim.NewKernel(1)
	medium := wireless.NewMedium(k, wireless.DefaultConfig())
	n := 5
	ids := make([]wireless.NodeID, n)
	for i := range ids {
		ids[i] = wireless.NodeID(i)
	}
	var nodes []*coord.Agreement
	for i := 0; i < n; i++ {
		radio, err := medium.Attach(ids[i], wireless.Position{X: float64(i) * 10})
		if err != nil {
			b.Fatal(err)
		}
		a := coord.NewAgreement(k, radio, coord.DefaultAgreementConfig(),
			func() []wireless.NodeID { return ids })
		radio.OnReceive(a.OnFrame)
		nodes = append(nodes, a)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := false
		nodes[i%n].Request("r", func(coord.Outcome) { done = true })
		k.RunFor(300 * sim.Millisecond)
		if !done {
			b.Fatal("round did not complete")
		}
		nodes[i%n].Release("r")
		k.RunFor(50 * sim.Millisecond)
	}
}

// BenchmarkE12Platoon runs a 30-car platoon with a fault campaign, one
// simulated second per iteration (E12).
func BenchmarkE12Platoon(b *testing.B) {
	cfg := world.DefaultHighwayConfig()
	h, err := world.BuildHighway(1, 1, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := h.Start(); err != nil {
		b.Fatal(err)
	}
	campaign, err := faultinject.Generate(sim.NewStream(1, 0, 11).Rand, faultinject.GenerateConfig{
		Duration: sim.Hour, Warmup: 10 * sim.Second, Events: 200, Targets: cfg.Cars,
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	// Schedule the campaign, then time the simulation.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i == 0 {
			if _, err := faultinject.RunOnHighway(ctx, h, campaign, sim.Second); err != nil {
				b.Fatal(err)
			}
		} else if err := h.Run(sim.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE13Intersection runs the intersection world for one simulated
// second per iteration (E13).
func BenchmarkE13Intersection(b *testing.B) {
	cfg := world.DefaultIntersectionConfig()
	cfg.LightFailsAt = 30 * sim.Second
	w, err := world.BuildIntersection(1, 1, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := w.Start(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Run(sim.Second); err != nil {
			b.Fatal(err)
		}
	}
	if w.Conflicts != 0 {
		b.Fatalf("conflicts during bench: %d", w.Conflicts)
	}
}

// BenchmarkE14LaneChange executes one granted maneuver lifecycle per
// iteration (E14).
func BenchmarkE14LaneChange(b *testing.B) {
	var m vehicle.Maneuver
	body := vehicle.Body{Lane: 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Begin(1-body.Lane, 3); err != nil {
			b.Fatal(err)
		}
		for !m.Step(&body, 0.1) {
		}
	}
}

// BenchmarkE15Avionics flies one complete crossing encounter per iteration
// (E15).
func BenchmarkE15Avionics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel(int64(i + 1))
		cfg := avionics.DefaultEncounterConfig(avionics.ScenarioCrossing, true)
		cfg.Duration = sim.Minute
		e, err := avionics.NewEncounter(k, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullStackHighwaySharded runs the full-KARYON-stack highway
// (1200 cars with triple-redundant validity pipelines, safety kernels,
// gates and V2V, on a 36 km ring) for one simulated second per iteration
// at increasing shard counts. The output is byte-identical at every width
// (locked in by the world tests); what changes is wall time. This is the
// engine's hot path — the per-step leader lookup is an O(log n) search in
// the sorted shard-local snapshot, not the seed's O(n) fleet scan — and
// the CI benchmark gate holds the line on it.
func BenchmarkFullStackHighwaySharded(b *testing.B) {
	for _, bc := range []struct {
		name   string
		shards int
	}{
		{"shards=1", 1},
		{"shards=2", 2},
		{"shards=4", 4},
		{"shards=8", 8},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := world.DefaultHighwayConfig()
			cfg.Length = 36000
			cfg.Cars = 1200
			h, err := world.BuildHighway(1, bc.shards, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := h.Start(); err != nil {
				b.Fatal(err)
			}
			// Warmup: the first windows grow scratch buffers and lazy
			// per-car pipelines to their high-water marks. The steady-state
			// window after them is the hot path this bench scores — and
			// what the allocs/op gate ratchets on.
			if err := h.Run(2 * sim.Second); err != nil {
				b.Fatal(err)
			}
			warm := h.Kernel().Executed()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := h.Run(sim.Second); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(h.Kernel().Executed()-warm)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkMegaHighwaySharded runs the ROADMAP-scale world — 10,000
// full-stack cars on a 300 km ring — for one simulated second per
// iteration at shard widths 1 and 8. At this scale the seed engine's
// per-barrier global rebuild + O(n log n) sort dominated the hook
// goroutine; the incremental engine refreshes and sorts each arc snapshot
// on the shard goroutines and the barrier only hands off boundary
// crossers and concatenates, so the serial barrier work tracks the
// reported crossers/simsec (a few per barrier), not the car count.
func BenchmarkMegaHighwaySharded(b *testing.B) {
	for _, bc := range []struct {
		name   string
		shards int
	}{
		{"shards=1", 1},
		{"shards=8", 8},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := world.DefaultHighwayConfig()
			cfg.Length = 300000
			cfg.Cars = 10000
			h, err := world.BuildHighway(1, bc.shards, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := h.Start(); err != nil {
				b.Fatal(err)
			}
			// Same steady-state warmup as the full-stack bench: score the
			// recycled hot path, not the first windows' high-water growth.
			if err := h.Run(sim.Second); err != nil {
				b.Fatal(err)
			}
			warm, warmCrossers := h.Kernel().Executed(), h.Crossers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := h.Run(sim.Second); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(h.Kernel().Executed()-warm)/b.Elapsed().Seconds(), "events/s")
			b.ReportMetric(float64(h.Crossers-warmCrossers)/float64(b.N), "crossers/simsec")
		})
	}
}

// --- Ablation benches -------------------------------------------------

// BenchmarkAblationKernelEventThroughput measures raw discrete-event
// scheduling (the floor under every other number here).
func BenchmarkAblationKernelEventThroughput(b *testing.B) {
	k := sim.NewKernel(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Schedule(sim.Microsecond, func() {})
		k.Step()
	}
}

// BenchmarkAblationGateFilter measures the Simplex gate's per-command cost
// (it sits on the actuation hot path of every vehicle).
func BenchmarkAblationGateFilter(b *testing.B) {
	k := sim.NewKernel(1)
	ri := core.NewRuntimeInfo(k)
	mgr, err := core.NewManager(k, ri, core.DefaultManagerConfig())
	if err != nil {
		b.Fatal(err)
	}
	fn, err := mgr.AddFunctionality("f", 2)
	if err != nil {
		b.Fatal(err)
	}
	gate, err := core.NewGate(fn, map[core.LoS]core.Envelope{
		1: core.NewEnvelope().Bound("accel", -6, 1),
		2: core.NewEnvelope().Bound("accel", -6, 2.5),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = gate.Filter("accel", 3.0)
	}
}

// BenchmarkAblationACCController measures the nominal controller law.
func BenchmarkAblationACCController(b *testing.B) {
	p := vehicle.DefaultACCParams()
	lead := vehicle.LeadView{Present: true, Gap: 40, Speed: 25, Accel: -1, Validity: 0.9}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = vehicle.ACCAccel(p, 28, lead)
	}
}

// BenchmarkAblationExperimentE3 runs the entire E3 harness once per
// iteration — the end-to-end cost of regenerating one published table.
func BenchmarkAblationExperimentE3(b *testing.B) {
	e, ok := experiments.ByID("E3")
	if !ok {
		b.Fatal("E3 missing")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := e.Run(experiments.Config{Seed: int64(i + 1)})
		if len(res.Records) != 5 {
			b.Fatalf("records = %d", len(res.Records))
		}
	}
}

// BenchmarkHarnessReplicatedE3 runs the E3 harness through the replicated
// runner at full parallelism (4 reduced-fidelity replicas per iteration —
// not comparable to the full-fidelity bare loop above; this tracks the
// seed-matrix fan-out path itself).
func BenchmarkHarnessReplicatedE3(b *testing.B) {
	e, ok := experiments.ByID("E3")
	if !ok {
		b.Fatal("E3 missing")
	}
	sc := experiments.Harnessed{Exp: e, Short: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := harness.Run(context.Background(), sc, harness.Options{
			Seed: int64(i + 1), Replicas: 4, Parallel: runtime.GOMAXPROCS(0),
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Summary.Records) != 5 {
			b.Fatalf("records = %d", len(rep.Summary.Records))
		}
	}
}

// BenchmarkE16Cohort forms an 8-vehicle cohort and fails its head over,
// one full lifecycle per iteration (E16).
func BenchmarkE16Cohort(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel(int64(i + 1))
		medium := wireless.NewMedium(k, wireless.DefaultConfig())
		var members []*coord.CohortMember
		for n := 0; n < 8; n++ {
			radio, err := medium.Attach(wireless.NodeID(n), wireless.Position{X: float64(n) * 10})
			if err != nil {
				b.Fatal(err)
			}
			m, err := coord.NewCohortMember(k, radio, coord.DefaultCohortConfig("p"))
			if err != nil {
				b.Fatal(err)
			}
			radio.OnReceive(m.OnFrame)
			members = append(members, m)
		}
		if err := members[0].Found(25); err != nil {
			b.Fatal(err)
		}
		for _, m := range members[1:] {
			if err := m.Join(); err != nil {
				b.Fatal(err)
			}
		}
		k.RunFor(3 * sim.Second)
		members[0].Stop()
		medium.Detach(0)
		k.RunFor(3 * sim.Second)
		heads := 0
		for _, m := range members[1:] {
			if m.Head() {
				heads++
			}
		}
		if heads != 1 {
			b.Fatalf("heads = %d", heads)
		}
	}
}
