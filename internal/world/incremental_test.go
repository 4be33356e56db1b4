package world

import (
	"cmp"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"karyon/internal/sim"
)

// bruteSnapshot is the seed's from-scratch snapshot: every car's state,
// globally sorted by (x, id), with ownership recomputed from scratch.
func bruteSnapshot(h *Highway) []hwSnap {
	var snap []hwSnap
	for _, c := range h.cars {
		lane2 := -1
		if c.maneuver.Active() {
			lane2 = c.maneuver.TargetLane
		}
		snap = append(snap, hwSnap{
			id: c.ID, x: c.Body.X, speed: c.Body.Speed, length: c.Body.Length,
			lane: c.Body.Lane, lane2: lane2, shard: h.part.ShardOf(c.Body.X),
		})
	}
	sort.Slice(snap, func(i, j int) bool {
		if snap[i].x != snap[j].x {
			return snap[i].x < snap[j].x
		}
		return snap[i].id < snap[j].id
	})
	return snap
}

// TestStitchedSnapshotMatchesBruteSort property-tests the incremental
// snapshot machinery: random rounds of car movement — forward drift across
// arc boundaries, cars planted exactly ON boundaries, wrap-around past
// x=0, and mid-maneuver lane2 entries — followed by the per-shard phase
// and the barrier merge must leave the stitched global snapshot
// element-for-element equal to the brute-force (x, id) sort, ownership
// equal to ShardOf, and the per-shard ownership lists in step-rank order,
// each car's rank its position in the world's (phase, id) order.
func TestStitchedSnapshotMatchesBruteSort(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		cfg := DefaultHighwayConfig() // 2 km ring, 250 m reach: up to 8 arcs
		cfg.Cars = 64
		cfg.Lanes = 3
		h := buildHighway(t, 5, shards, cfg)
		if got := h.Kernel().Shards(); got != shards {
			t.Fatalf("wanted %d shards, got %d", shards, got)
		}
		for r, c := range h.order {
			if c.rank != r || (r > 0 && cmp.Or(cmp.Compare(h.order[r-1].phase, c.phase),
				cmp.Compare(h.order[r-1].ID, c.ID)) >= 0) {
				t.Fatalf("shards=%d: car %d at rank %d (its rank %d) breaks the (phase, id) order", shards, c.ID, r, c.rank)
			}
		}
		h.assignShards()
		h.publishSnapshot(0)
		rng := rand.New(rand.NewSource(int64(1000 + shards)))
		for round := 1; round <= 60; round++ {
			for _, c := range h.cars {
				switch rng.Intn(12) {
				case 0:
					// Exactly on an arc boundary (owned by the upper arc).
					c.Body.X = h.part.ArcStart(rng.Intn(shards))
				case 1:
					// Hugging the wrap: the next drift crosses x=0.
					c.Body.X = cfg.Length - 0.5 - rng.Float64()
				default:
					// A window's travel, occasionally enough to cross.
					c.Body.X += rng.Float64() * 5
					if c.Body.X >= cfg.Length {
						c.Body.X -= cfg.Length
					}
				}
				c.Body.Speed = 5 + 25*rng.Float64()
				if !c.maneuver.Active() {
					c.Body.Lane = rng.Intn(cfg.Lanes)
					if rng.Intn(4) == 0 {
						if err := c.maneuver.Begin((c.Body.Lane+1)%cfg.Lanes, 3); err != nil {
							t.Fatal(err)
						}
					}
				} else if rng.Intn(3) == 0 {
					for !c.maneuver.Step(&c.Body, 0.5) {
					}
				}
			}
			// Republish the mutated kinematics into the SoA hot table — the
			// write barrier every real mutation point (step end, maneuver
			// grant, full rebuild) performs before the shard phase reads it.
			for _, c := range h.cars {
				h.syncHot(c)
			}
			edge := sim.Time(round) * cfg.ControlPeriod
			for s := 0; s < shards; s++ {
				h.shardPhase(s, edge)
			}
			h.mergeSnapshot(edge)

			want := bruteSnapshot(h)
			if len(h.snap) != len(want) {
				t.Fatalf("shards=%d round=%d: stitched %d entries, want %d",
					shards, round, len(h.snap), len(want))
			}
			for i := range want {
				if h.snap[i] != want[i] {
					t.Fatalf("shards=%d round=%d entry %d:\nstitched %+v\nbrute    %+v",
						shards, round, i, h.snap[i], want[i])
				}
			}
			owned := 0
			for s, list := range h.byShard {
				for i, c := range list {
					if c.shard != s {
						t.Fatalf("shards=%d round=%d: car %d in list %d but owned by %d",
							shards, round, c.ID, s, c.shard)
					}
					if want := h.part.ShardOf(c.Body.X); c.shard != want {
						t.Fatalf("shards=%d round=%d: car %d at %.3f owned by %d, want %d",
							shards, round, c.ID, c.Body.X, c.shard, want)
					}
					if i > 0 && list[i-1].rank >= c.rank {
						t.Fatalf("shards=%d round=%d: byShard[%d] not in step-rank order", shards, round, s)
					}
				}
				owned += len(list)
			}
			if owned != len(h.cars) {
				t.Fatalf("shards=%d round=%d: %d cars owned, want %d", shards, round, owned, len(h.cars))
			}
		}
		if shards > 1 && h.Crossers == 0 {
			t.Fatalf("shards=%d: no boundary crossers exercised", shards)
		}
	}
}

// TestSweepLeadersMatchesBinarySearch locks the linear collision sweep to
// the per-car binary-search leaderAt on a random multi-lane world with
// duplicate positions and mid-maneuver entries.
func TestSweepLeadersMatchesBinarySearch(t *testing.T) {
	cfg := DefaultHighwayConfig()
	cfg.Cars = 80
	cfg.Lanes = 3
	h := buildHighway(t, 11, 1, cfg)
	rng := rand.New(rand.NewSource(77))
	for _, c := range h.cars {
		c.Body.X = float64(rng.Intn(200)) * 10 // plenty of exact x ties
		c.Body.Lane = rng.Intn(cfg.Lanes)
		c.Body.Speed = 10 + 20*rng.Float64()
		if rng.Float64() < 0.25 {
			if err := c.maneuver.Begin((c.Body.Lane+1)%cfg.Lanes, 3); err != nil {
				t.Fatal(err)
			}
		}
	}
	h.assignShards()
	h.publishSnapshot(0)
	h.sweepLeaders()
	for _, c := range h.cars {
		wantLead, wantGap := h.leaderAt(c)
		li := h.sweepLead[c.ID]
		if wantLead == nil {
			if li >= 0 {
				t.Fatalf("car %d: sweep found leader %d, search found none", c.ID, h.snap[li].id)
			}
			continue
		}
		if li < 0 {
			t.Fatalf("car %d: search found leader %d, sweep found none", c.ID, wantLead.id)
		}
		if h.snap[li].id != wantLead.id {
			t.Fatalf("car %d: sweep leader %d, search leader %d", c.ID, h.snap[li].id, wantLead.id)
		}
		if h.sweepGap[c.ID] != wantGap {
			t.Fatalf("car %d: sweep gap %v, search gap %v", c.ID, h.sweepGap[c.ID], wantGap)
		}
	}
}

// TestBarrierActionContract locks the onWindow contract the incremental
// snapshot relies on: scheduled barrier actions that only set flags (jams,
// forced braking, cruise-speed changes) keep the stitched snapshot in sync
// with the cars, while an action that mutates kinematics is caught loudly
// by the debugSnapshotSync assertion instead of silently desyncing the
// next window. The assertion covers the dense hot table as well.
func TestBarrierActionContract(t *testing.T) {
	debugSnapshotSync = true
	defer func() { debugSnapshotSync = false }()

	cfg := DefaultHighwayConfig()
	cfg.Cars = 10
	cfg.Length = 1000
	h := buildHighway(t, 31, 2, cfg)
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	h.Schedule(2*sim.Second, func() { h.JamV2V(sim.Second) })
	h.Schedule(3*sim.Second, func() { h.Cars()[1].ForceBrake(h.Now(), sim.Second) })
	h.Schedule(4*sim.Second, func() { h.Cars()[2].SetCruiseSpeed(12) })
	if err := h.Run(6 * sim.Second); err != nil {
		t.Fatalf("flag-only barrier actions tripped the sync assertion: %v", err)
	}

	// A kinematic mutation must surface as a window-hook error, not pass.
	h.Schedule(7*sim.Second, func() { h.Cars()[3].Body.X += 500 })
	err := h.Run(2 * sim.Second)
	if err == nil || !strings.Contains(err.Error(), "desync") {
		t.Fatalf("kinematic mutation not caught: %v", err)
	}

	// The hot table is checked field by field against the bodies too
	// (accounting reads speeds from it): a mutation the snapshot entries
	// do not carry, such as a car's length, is caught there.
	h = buildHighway(t, 31, 2, cfg)
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	h.Schedule(sim.Second, func() { h.Cars()[4].Body.Length = 9 })
	err = h.Run(2 * sim.Second)
	if err == nil || !strings.Contains(err.Error(), "hot table desync") {
		t.Fatalf("hot-table mutation not caught: %v", err)
	}
}
