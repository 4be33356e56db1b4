package wireless

import (
	"testing"
	"time"

	"karyon/internal/sim"
)

// ringWindow is a window of beacons shaped like a ring highway's: cars
// evenly spaced on a ring, some of them sending one frame each at a
// uniformly drawn start, with a carrier-sense retry deadline at the
// window's last in-window start.
type ringWindow struct {
	cfg    ShardedConfig
	cars   []Position
	frames []ShardedTx // starts relative to the window's opening
	window sim.Time
}

// newRingWindow spaces cars over a ring of the given length and draws a
// start for each of nframes senders (spread evenly over the cars).
func newRingWindow(cfg ShardedConfig, cars, nframes int, window sim.Time, seed int64) *ringWindow {
	w := &ringWindow{cfg: cfg, cars: make([]Position, cars), window: window}
	spacing := cfg.Ring / float64(cars)
	for i := range w.cars {
		w.cars[i] = Position{X: float64(i) * spacing}
	}
	rng := sim.NewStream(seed, 0, 0)
	last := window - cfg.Airtime
	for i := 0; i < nframes; i++ {
		from := i * cars / nframes
		w.frames = append(w.frames, ShardedTx{
			From:    NodeID(from),
			Channel: from % cfg.Channels,
			Pos:     w.cars[from],
			Start:   sim.Time(rng.Int63n(int64(last))),
			Retry:   last,
		})
	}
	return w
}

// queue hands the window's frames, opened at open, to m in sender order.
func (w *ringWindow) queue(m *ShardedMedium, open sim.Time) {
	for _, tx := range w.frames {
		tx.Start += open
		tx.Retry += open
		m.Queue(tx)
	}
}

// each returns the receiver walk of partition part of parts: the cars
// within range of the sender (plus one spacing of slack) that lie in the
// partition's share of the ring.
func (w *ringWindow) each(part, parts int) func(*ShardedTx, func(NodeID, Position)) {
	n := len(w.cars)
	spacing := w.cfg.Ring / float64(n)
	reach := int(w.cfg.Range/spacing) + 1
	lo, hi := part*n/parts, (part+1)*n/parts
	return func(tx *ShardedTx, visit func(NodeID, Position)) {
		at := int(tx.Pos.X / spacing)
		for k := at - reach; k <= at+reach; k++ {
			i := k
			if i < 0 {
				i += n
			} else if i >= n {
				i -= n
			}
			if i >= lo && i < hi {
				visit(NodeID(i), w.cars[i])
			}
		}
	}
}

// BenchmarkShardedMediumWindow resolves one window shaped like perfbench's
// radio-5k world per iteration: 4,000 beacons from 5,000 cars on a
// 150 km ring, 250 m range, 5% loss, carrier sense with retries, visited
// in two receiver partitions (the world's two shards). It reports the
// serial contention pass and the two visits separately, per frame.
func BenchmarkShardedMediumWindow(b *testing.B) {
	cfg := DefaultShardedConfig()
	cfg.Range = 250
	cfg.Ring = 150000
	cfg.LossProb = 0.05
	cfg.CarrierSense = true
	w := newRingWindow(cfg, 5000, 4000, 100*sim.Millisecond, 1)
	m := NewShardedMedium(1, cfg)
	m.Reserve(len(w.cars))
	each := []func(*ShardedTx, func(NodeID, Position)){w.each(0, 2), w.each(1, 2)}
	deliver := func(tx *ShardedTx, to NodeID) {}
	drop := func(tx *ShardedTx, to NodeID, reason DropReason) {}

	var contend, visit time.Duration
	now := sim.Time(0)
	resolve := func() {
		w.queue(m, now)
		t0 := time.Now()
		m.Contend(2, drop)
		t1 := time.Now()
		m.Visit(0, each[0], deliver, drop)
		m.Visit(1, each[1], deliver, drop)
		contend += t1.Sub(t0)
		visit += time.Since(t1)
		m.Settle()
		now += w.window
	}
	// One window first: it creates the loss streams and grows the
	// medium's scratch, so the loop measures the steady state.
	resolve()
	contend, visit = 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resolve()
	}
	frames := float64(b.N) * float64(len(w.frames))
	b.ReportMetric(float64(contend.Nanoseconds())/frames, "contend-ns/frame")
	b.ReportMetric(float64(visit.Nanoseconds())/frames, "visit-ns/frame")
}
