package world

import (
	"math"
	"runtime"
	"testing"

	"karyon/internal/sim"
)

// TestSteadyStateAllocBudget is the alloc ratchet for the hot simulation
// window: after warmup, one simulated second of the full highway stack
// must stay within a fixed allocation budget. The budgets carry several
// times headroom over the measured steady state (≈4 allocs/simsec at
// shards=1, ≈11 at shards=8 — mostly the per-Run worker spawns — and
// ≈33 and ≈39 with the radio medium at shards=2, the benchmark's width,
// and shards=8), but sit three orders of magnitude below
// the pre-arena numbers (~12k-36k/simsec), so any reintroduced per-event
// churn — a stray fmt.Sprintf, a closure in a car step, interface boxing
// on a beacon payload — fails loudly here long before it shows up in a
// bench run.
func TestSteadyStateAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc budget probe is not -short friendly")
	}
	for _, tc := range []struct {
		name   string
		shards int
		medium bool
		budget float64 // max allocations per simulated second
	}{
		{"shards=1", 1, false, 32},
		{"shards=8", 8, false, 64},
		{"shards=2/medium", 2, true, 128},
		{"shards=8/medium", 8, true, 160},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultHighwayConfig()
			cfg.Length = 36000
			cfg.Cars = 1200
			cfg.Medium = tc.medium
			cfg.Channels = 1
			h, err := BuildHighway(1, tc.shards, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.Start(); err != nil {
				t.Fatal(err)
			}
			// Warmup: hit the free-list and scratch-buffer high-water
			// marks (mailbox capacity, snapshot
			// arenas) so the measurement sees only steady-state churn.
			if err := h.Run(2 * sim.Second); err != nil {
				t.Fatal(err)
			}
			per := testing.AllocsPerRun(5, func() {
				if err := h.Run(sim.Second); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s: %.1f allocs per simulated second (budget %.0f)", tc.name, per, tc.budget)
			if per > tc.budget {
				t.Errorf("%s: %.1f allocs per simulated second, budget %.0f — steady-state churn reintroduced",
					tc.name, per, tc.budget)
			}
		})
	}
}

// buildAllocsPerCar bounds what building and starting a world allocates
// per car. Every car gets its own run-time state and nothing else: the
// safety kernel's design, the transducers' detectors and the lane-change
// region names are built once per world and shared (carDesign), and a
// car's kernel, each of its fault-management units, and the names of its
// transducers are one allocation each. The budget is the measured 38.3
// per car at 1200 cars (102.5 before the design was shared) plus a margin
// of 4, about 10%: a per-car map, closure or formatted string brought
// back costs several per car, and fails here. Every allocation here is paid again on every replay
// request, which rebuilds the world.
const buildAllocsPerCar = 42

// TestBuildAllocBudget builds and starts the reference 1200-car world, as
// ReplayTrace does for every request, and bounds the allocations per car.
func TestBuildAllocBudget(t *testing.T) {
	cfg := DefaultHighwayConfig()
	cfg.Length = 36000
	cfg.Cars = 1200
	best := uint64(math.MaxUint64)
	for range 3 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		h, err := BuildHighway(1, 2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Start(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		best = min(best, m1.Mallocs-m0.Mallocs)
	}
	perCar := float64(best) / float64(cfg.Cars)
	t.Logf("build: %d allocations, %.1f per car", best, perCar)
	if perCar > buildAllocsPerCar {
		t.Fatalf("building a world allocates %.1f objects per car, budget %d", perCar, buildAllocsPerCar)
	}
}
