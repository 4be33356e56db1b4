package experiments

import (
	"fmt"

	"karyon/internal/metrics"
	"karyon/internal/sim"
	"karyon/internal/world"
)

// eMacS — slot-level beacon contention inside the sharded worlds: the
// mac/inaccess phenomena (airtime collisions, carrier-sense deferrals,
// jam-induced inaccessibility) measured where the paper's safety argument
// lives — the full-stack highway — instead of on an isolated protocol
// clique. The sweep crosses vehicle density with jam-burst length and
// reports beacon delivery ratio, contention outcomes, the observed
// inaccessibility durations, and the safety bottom line (collisions,
// LoS3 occupancy). Replicated by default and honoring Config.Shards: the
// numbers are identical at every shard width.
func eMacS() Experiment {
	return Experiment{
		ID:       "E-MAC-S",
		Title:    "Beacon delivery and inaccessibility vs density and jamming, in-world",
		Anchor:   "Sec. V-A1 (inaccessibility) at Sec. VI-A scale",
		Replicas: 3,
		Run:      runEMacS,
	}
}

func runEMacS(cfg Config) *metrics.Result {
	dur := cfg.dur(30*sim.Second, 8*sim.Second)
	densities := []int{60, 120, 240}
	bursts := []sim.Time{0, 500 * sim.Millisecond}
	if cfg.Short {
		densities = []int{40, 120}
	}
	const ring = 6000.0
	res := metrics.NewResult(fmt.Sprintf(
		"E-MAC-S - slot-level beacon contention on a %.0f m ring (%s per cell)", ring, dur.String()))
	for _, cars := range densities {
		for _, burst := range bursts {
			hcfg := world.DefaultHighwayConfig()
			hcfg.Length = ring
			hcfg.Cars = cars
			hcfg.Medium = true
			hcfg.CarrierSense = true
			hcfg.Loss = 0.02
			h, err := world.BuildHighway(cfg.Seed, cfg.shards(), hcfg)
			if err != nil {
				res.AddNote("%d cars: %v", cars, err)
				continue
			}
			if burst > 0 {
				// Periodic wideband interference, every 3 s from warm-up on.
				for t := 3 * sim.Second; t < dur; t += 3 * sim.Second {
					burst := burst
					h.Schedule(t, func() { h.JamV2V(burst) })
				}
			}
			if err := h.Start(); err != nil {
				res.AddNote("%d cars: %v", cars, err)
				continue
			}
			if err := h.Run(dur); err != nil {
				res.AddNote("%d cars: %v", cars, err)
				continue
			}
			st := h.MediumStats()
			inacc := h.Inaccessibility()
			los3 := 0
			for _, c := range h.Cars() {
				if c.LoS() == 3 {
					los3++
				}
			}
			res.Record("density veh/km", fmt.Sprintf("%.0f", float64(cars)/(ring/1000)),
				"jam burst", burst.String()).
				Val("delivery ratio", st.DeliveryRatio(), metrics.Pct).
				Int("radio collisions", st.Collisions).
				Int("deferred", st.Deferred).
				Int("retried", st.Retries).
				Int("jammed", st.Jammed).
				Val("inacc p95 ms", inacc.Percentile(95), metrics.F2).
				Val("inacc max ms", inacc.Max(), metrics.F2).
				Val("LoS3 share", float64(los3)/float64(cars), metrics.Pct).
				Int("collisions", h.Collisions).
				Val("mean speed m/s", h.MeanSpeed(), metrics.F2)
		}
	}
	res.AddNote("expected: delivery ratio falls and radio collisions rise with density; under CSMA a jam surfaces as deferrals (carrier sense reports the burst busy), and each burst appears whole in the inaccessibility durations — all without vehicle collisions")
	res.AddNote("beacon age: a retried frame re-contends when the channel clears instead of dropping, so it is delivered within its own barrier window — at worst one beacon period (100 ms) staler than its slot, never staler than the next beacon would have been; the retried column counts beacons whose loss carrier sense converted into that bounded staleness")
	return res
}
