package wireless

import (
	"testing"

	"karyon/internal/sim"
)

// TestResolveAllocs locks the lockstep barrier resolution to zero
// steady-state allocations: once the pending slice and the reusable
// visit closure have hit their high-water marks, queueing and resolving
// a full window's frame set must not allocate. The delivery loop hands
// every frame to a medium-owned closure (not a fresh one per frame), and
// the pending buffer is recycled across barriers, so any regression here
// is a new escape on the per-(frame, receiver) path.
func TestResolveAllocs(t *testing.T) {
	cfg := DefaultShardedConfig()
	cfg.Range = 300
	m := NewShardedMedium(7, cfg)

	const nodes = 16
	pos := make([]Position, nodes)
	for i := range pos {
		pos[i] = Position{X: float64(i) * 40}
	}
	// Frames spaced one airtime apart so every frame goes on air (no
	// collisions to shortcut the receiver walk).
	queue := func(now sim.Time) {
		for i := 0; i < nodes; i++ {
			m.Queue(ShardedTx{
				From:  NodeID(i),
				Pos:   pos[i],
				Start: now + sim.Time(i)*cfg.Airtime,
			})
		}
	}
	each := func(tx *ShardedTx, visit func(to NodeID, pos Position)) {
		for i := 0; i < nodes; i++ {
			visit(NodeID(i), pos[i])
		}
	}
	deliver := func(tx *ShardedTx, to NodeID) {}
	drop := func(tx *ShardedTx, to NodeID, reason DropReason) {}

	now := sim.Time(0)
	window := sim.Time(nodes) * cfg.Airtime
	// Warmup: grow pending/onAir to their high-water marks and build the
	// medium's reusable visit closure.
	for r := 0; r < 3; r++ {
		queue(now)
		m.Resolve(each, deliver, drop)
		now += window
	}
	per := testing.AllocsPerRun(10, func() {
		queue(now)
		m.Resolve(each, deliver, drop)
		now += window
	})
	if per > 0 {
		t.Errorf("queue+resolve of %d frames: %.1f allocs, want 0", nodes, per)
	}
	if got := m.Stats().Delivered; got == 0 {
		t.Fatal("no frames delivered — the probe is not exercising the delivery path")
	}
}

// TestPartitionedResolveAllocs locks the partitioned barrier resolution
// (Contend, one Visit per partition, Settle) to zero steady-state
// allocations, on a window dense enough that carrier sense retries
// frames, the contention pass sorts and permutes them, and the collision
// checks build non-empty near lists.
func TestPartitionedResolveAllocs(t *testing.T) {
	cfg := DefaultShardedConfig()
	cfg.Range = 250
	cfg.Ring = 3000
	cfg.LossProb = 0.05
	cfg.CarrierSense = true
	w := newRingWindow(cfg, 240, 200, 10*sim.Millisecond, 5)
	m := NewShardedMedium(7, cfg)
	m.Reserve(len(w.cars))
	each := []func(*ShardedTx, func(NodeID, Position)){w.each(0, 2), w.each(1, 2)}
	deliver := func(tx *ShardedTx, to NodeID) {}
	drop := func(tx *ShardedTx, to NodeID, reason DropReason) {}

	now := sim.Time(0)
	resolve := func() {
		w.queue(m, now)
		m.Contend(2, drop)
		m.Visit(0, each[0], deliver, drop)
		m.Visit(1, each[1], deliver, drop)
		m.Settle()
		now += w.window
	}
	// Warmup: grow pending, the sort keys, onAir and the near lists to
	// their high-water marks, and create the receivers' loss streams.
	for r := 0; r < 3; r++ {
		resolve()
	}
	if per := testing.AllocsPerRun(10, resolve); per > 0 {
		t.Errorf("partitioned resolve of %d frames: %.1f allocs, want 0", len(w.frames), per)
	}
	st := m.Stats()
	if st.Collisions == 0 || st.Retries == 0 || st.Delivered == 0 {
		t.Fatalf("degenerate window: %+v", st)
	}
	for p, vp := range m.parts[:2] {
		if cap(vp.near) == 0 {
			t.Fatalf("partition %d never built a near list", p)
		}
	}
}
