package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"time"

	"karyon/internal/sim"
	"karyon/internal/world"
)

// shards is the lockstep width of every world workload: the core count of
// the host the baseline was recorded on, so both shards run in parallel.
const shards = 2

// worldSpec is one world workload: the highway it builds, the warm-up it
// runs before timing, its jam schedule, how many windows one operation
// (one Run call) covers, and how many set-ups a run times so setup_s is a
// median.
type worldSpec struct {
	cfg      world.HighwayConfig
	warmup   sim.Time
	jamEvery sim.Time // 0: no jams; a multiple of the operation
	jamBurst sim.Time
	chunk    int // windows per operation
	setups   int
}

// highway1200 is the full-stack reference world of
// BenchmarkFullStackHighwaySharded, the world record-replay records: 1200
// cars on a 36 km ring, 250 m reach, abstract lossless V2V. Shard events
// and the serial beacon fan-out at the barrier do nearly all the work.
func highway1200() worldSpec {
	cfg := world.DefaultHighwayConfig()
	cfg.Length = 36000
	cfg.Cars = 1200
	// record-replay records one simulated second per Run call, as the go
	// bench runs it: the call's worker start-up stays amortized over ten
	// windows.
	return worldSpec{cfg: cfg, chunk: 10}
}

// radio5k is the megahighway over the slot-level radio (carrier sense, one
// channel, 5% loss, 250 m reach) at the density of the 10k-car reference.
// It is jammed as experiment E-MAC-S jams its slot-level highway: a 500 ms
// burst every 3 s. The serial ShardedMedium resolve at the barrier
// dominates.
func radio5k() worldSpec {
	cfg := world.DefaultHighwayConfig()
	cfg.Length = 150000
	cfg.Cars = 5000
	cfg.V2VRange = 250
	cfg.Loss = 0.05
	cfg.Medium = true
	cfg.Channels = 1
	cfg.CarrierSense = true
	// A window costs ~0.13 s here, so one window per operation still
	// gives enough operations for a tail.
	return worldSpec{
		cfg: cfg, warmup: sim.Second, chunk: 1, setups: 7,
		jamEvery: 3 * sim.Second, jamBurst: 500 * sim.Millisecond,
	}
}

// window is the lockstep window: one control period.
func (ws worldSpec) window() sim.Time { return ws.cfg.ControlPeriod }

// op is the simulated time one operation advances.
func (ws worldSpec) op() sim.Time { return sim.Time(ws.chunk) * ws.window() }

// build constructs and starts the world, without warm-up.
func (ws worldSpec) build(seed int64) (*world.Highway, error) {
	h, err := world.BuildHighway(seed, shards, ws.cfg)
	if err != nil {
		return nil, err
	}
	if err := h.Start(); err != nil {
		return nil, err
	}
	return h, nil
}

// setup is the set-up setup_s times: build, Start and warm-up.
func (ws worldSpec) setup(seed int64) (*world.Highway, error) {
	h, err := ws.build(seed)
	if err != nil {
		return nil, err
	}
	for h.Now() < ws.warmup {
		if err := ws.step(h); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// step runs one operation. Jam bursts start between operations, while the
// world is stopped, so the schedule costs nothing inside a window.
func (ws worldSpec) step(h *world.Highway) error {
	if now := h.Now(); ws.jamEvery > 0 && now > 0 && now%ws.jamEvery == 0 {
		h.JamV2V(ws.jamBurst)
	}
	return h.Run(ws.op())
}

// worldRun drives one world operation by operation and keeps what the
// benchmark measures: each operation's wall time always, phase spans when
// traced.
type worldRun struct {
	ws   worldSpec
	h    *world.Highway
	tr   *windowTracer // nil: untraced
	out  *outcome
	wall []float64 // ms per operation
	runS float64   // Σ wall, s
	coll int64
}

func newWorldRun(ws worldSpec, h *world.Highway, tr *windowTracer, out *outcome) *worldRun {
	return &worldRun{ws: ws, h: h, tr: tr, out: out, coll: h.Collisions}
}

// step runs and checks one operation. It fails when a collision happens
// in it or a car's speed or position stops being finite.
func (r *worldRun) step() error {
	var err error
	var ns int64
	if r.tr != nil {
		ns, err = r.tr.op(func() error { return r.ws.step(r.h) })
	} else {
		t0 := time.Now()
		err = r.ws.step(r.h)
		ns = time.Since(t0).Nanoseconds()
	}
	if err != nil {
		return err
	}
	r.wall = append(r.wall, float64(ns)/1e6)
	r.runS += float64(ns) / 1e9
	r.out.Attempted++
	if c := r.h.Collisions; c != r.coll {
		r.out.fail("operation ending %v: %d collisions", r.h.Now(), c-r.coll)
		r.coll = c
		return nil
	}
	for _, c := range r.h.Cars() {
		if !finite(c.Body.Speed) || !finite(c.Body.X) {
			r.out.fail("operation ending %v: car %d has speed %v at x %v", r.h.Now(), c.ID, c.Body.Speed, c.Body.X)
			return nil
		}
	}
	return nil
}

// until runs operations until they have spent the wall budget. pause,
// when n > 0, runs n times between operations, once in the middle of each
// n-th of the budget, outside both the operations' timing and the budget.
func (r *worldRun) until(budget time.Duration, n int, pause func() error) error {
	start := time.Now()
	var paused time.Duration
	for k := 0; ; {
		spent := time.Since(start) - paused
		if spent >= budget {
			return nil
		}
		if k < n && spent >= budget*time.Duration(2*k+1)/time.Duration(2*n) {
			t0 := time.Now()
			if err := pause(); err != nil {
				return err
			}
			paused += time.Since(t0)
			k++
			continue
		}
		if err := r.step(); err != nil {
			return err
		}
	}
}

// ops runs exactly n operations.
func (r *worldRun) ops(n int) error {
	for i := 0; i < n; i++ {
		if err := r.step(); err != nil {
			return err
		}
	}
	return nil
}

// windows is how many windows the operations covered.
func (r *worldRun) windows() int { return len(r.wall) * r.ws.chunk }

// simsecPerS is simulated seconds per wall second at the median
// operation, which a burst of interference from outside the program does
// not move; ops_per_s keeps the sustained rate.
func (r *worldRun) simsecPerS() float64 {
	return ratio(r.ws.op().Seconds()*1e3, median(r.wall))
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// worldDigest hashes the simulated outcome: every car's kinematic state
// and the world's behavioural counters. Two runs with equal digests
// simulated the same thing.
func worldDigest(h *world.Highway) string {
	d := sha256.New()
	var b [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		d.Write(b[:])
	}
	put(uint64(h.Now()))
	for _, c := range h.Cars() {
		put(uint64(c.ID))
		put(uint64(c.Body.Lane))
		put(math.Float64bits(c.Body.X))
		put(math.Float64bits(c.Body.Speed))
		put(math.Float64bits(c.Body.Accel))
		put(uint64(c.EmergencyBrakes))
	}
	sent, delivered, lost := h.BeaconStats()
	ms := h.MediumStats()
	for _, v := range []int64{h.Collisions, sent, delivered, lost, ms.Sent, ms.Delivered,
		ms.Collisions, ms.Deferred, ms.Losses, ms.Jammed, ms.Retries} {
		put(uint64(v))
	}
	put(math.Float64bits(h.MeanSpeed()))
	return hex.EncodeToString(d.Sum(nil))
}

// worldCounters is a snapshot of the layer counters a traced run reads
// before and after its windows.
type worldCounters struct {
	events    uint64
	delivered int64
	crossers  int64
	frames    int64
	mColl     int64
	deferred  int64
	retries   int64
}

func readWorldCounters(h *world.Highway) worldCounters {
	_, delivered, _ := h.BeaconStats()
	ms := h.MediumStats()
	return worldCounters{
		events: h.Kernel().Executed(), delivered: delivered, crossers: h.Crossers,
		frames: ms.Sent, mColl: ms.Collisions, deferred: ms.Deferred, retries: ms.Retries,
	}
}

// gcCounters are the Go runtime's cumulative allocation and GC counters.
type gcCounters struct {
	alloc, cycles, pauseNs uint64
}

func readGC() gcCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcCounters{alloc: m.TotalAlloc, cycles: uint64(m.NumGC), pauseNs: m.PauseTotalNs}
}

// recordGo stores the go.* metrics of a phase of windows.
func recordGo(out *outcome, a, b gcCounters, windows int, simsec float64) {
	out.Values["go.alloc_bytes_per_window"] = ratio(float64(b.alloc-a.alloc), float64(windows))
	out.Values["go.gc_cycles_per_simsec"] = ratio(float64(b.cycles-a.cycles), simsec)
	out.Values["go.gc_pause_ms"] = float64(b.pauseNs-a.pauseNs) / 1e6
}

// liveHeap forces two collections (the second empties sync.Pool victim
// caches) and returns the live heap in bytes.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// runWorld runs a world workload (radio-5k).
func runWorld(cfg runConfig, ws worldSpec) (*outcome, error) {
	if cfg.Traced {
		return runWorldTraced(cfg, ws)
	}
	out := newOutcome()
	var setups []float64
	setup := func() (*world.Highway, error) {
		runtime.GC()
		t0 := time.Now()
		h, err := ws.setup(cfg.Seed)
		setups = append(setups, time.Since(t0).Seconds())
		return h, err
	}
	h, err := setup()
	if err != nil {
		return nil, err
	}
	// The live heap once the world is ready: a fixed simulated instant, so
	// it does not depend on how far the timed loop gets.
	heap := liveHeap()
	r := newWorldRun(ws, h, nil, out)
	// The other set-ups are spread over the timed run, each world thrown
	// away once built: a set-up takes seconds, so back to back they would
	// all fall into one burst of interference from outside the program.
	// The collection afterwards keeps the discarded world's garbage out of
	// the operations' timing.
	err = r.until(cfg.Budget, ws.setups-1, func() error {
		_, err := setup()
		runtime.GC()
		return err
	})
	if err != nil {
		return nil, err
	}
	out.Values["setup_s"] = median(setups)
	out.Samples["setup_s"] = len(setups)
	out.Values["simsec_per_s"] = r.simsecPerS()
	out.Values["ops_per_s"] = ratio(float64(len(r.wall)), r.runS)
	out.timing("op_ms", r.wall)
	out.Values["heap_mb"] = heap / 1e6
	return out, nil
}

// runWorldTraced runs the world twice from the same seed: untraced for
// half the budget, then traced for exactly as many operations. The two
// simulated outcomes must be byte-identical, which shows the benchmark's
// hooks perturb nothing; the ratio of their speeds is the tracing
// overhead.
func runWorldTraced(cfg runConfig, ws worldSpec) (*outcome, error) {
	out := newOutcome()
	h, err := ws.setup(cfg.Seed)
	if err != nil {
		return nil, err
	}
	plain := newWorldRun(ws, h, nil, out)
	heap0 := liveHeap()
	g0 := readGC()
	if err := plain.until(cfg.Budget/2, 0, nil); err != nil {
		return nil, err
	}
	recordGo(out, g0, readGC(), plain.windows(), float64(plain.windows())*ws.window().Seconds())
	out.Values["go.retained_bytes_per_op"] = (liveHeap() - heap0) / float64(len(plain.wall))
	want := worldDigest(h)
	h, plain.h = nil, nil
	runtime.GC()

	if h, err = ws.setup(cfg.Seed); err != nil {
		return nil, err
	}
	tr := attachTracer(h)
	traced := newWorldRun(ws, h, tr, out)
	c0 := readWorldCounters(h)
	if err := traced.ops(len(plain.wall)); err != nil {
		return nil, err
	}
	c1 := readWorldCounters(h)
	if got := worldDigest(h); got != want {
		out.fail("traced run's outcome %s differs from the untraced run's %s", got[:16], want[:16])
	}
	recordWindowLayers(out, tr, c0, c1)
	out.Values["bench.trace_overhead"] = ratio(traced.simsecPerS(), plain.simsecPerS()) - 1
	out.Spans = tr.spans
	return out, nil
}

// recordWindowLayers derives the sim, world and wireless metrics of a
// traced phase from its spans and counter deltas.
func recordWindowLayers(out *outcome, tr *windowTracer, c0, c1 worldCounters) {
	t := tr.totals()
	n := float64(t.Windows)
	d := summarize(tr.wall)
	out.Values["sim.window_ms.p50"] = d.P50 / 1e6
	out.Values["sim.window_ms.tail"] = d.Tail / 1e6
	out.Samples["sim.window_ms"] = d.N
	out.Values["sim.shard_ms.max"] = median(tr.shardMax) / 1e6
	out.Values["sim.shard_ms.sum"] = median(tr.shardSum) / 1e6
	out.Values["sim.barrier_ms"] = median(tr.barrier) / 1e6
	out.Values["sim.serial_fraction"] = t.serialFraction()
	out.Values["sim.imbalance"] = t.imbalance()
	out.Values["sim.unaccounted_fraction"] = tr.unaccounted()
	events := float64(c1.events - c0.events)
	out.Values["sim.events_per_window"] = ratio(events, n)
	out.Values["sim.shard_ns_per_event"] = ratio(t.ShardSum, events)
	beacons := float64(c1.delivered - c0.delivered)
	out.Values["world.beacons_delivered_per_window"] = ratio(beacons, n)
	out.Values["world.crossers_per_window"] = ratio(float64(c1.crossers-c0.crossers), n)
	out.Values["world.barrier_ns_per_beacon"] = ratio(t.Barrier, beacons)
	frames := float64(c1.frames - c0.frames)
	out.Values["wireless.frames_per_window"] = ratio(frames, n)
	out.Values["wireless.collisions_per_window"] = ratio(float64(c1.mColl-c0.mColl), n)
	out.Values["wireless.deferrals_per_window"] = ratio(float64(c1.deferred-c0.deferred), n)
	out.Values["wireless.retries_per_window"] = ratio(float64(c1.retries-c0.retries), n)
	out.Values["wireless.barrier_ns_per_frame"] = ratio(t.Barrier, frames)
}

// windowTracer records each window's phases from outside the program: a
// per-shard hook and a window hook registered after the world's own, so
// each fires when that part of the window's work is done. A window runs
// from the previous barrier's end (or the Run call) to its barrier hook; a
// shard span from the window's start to that shard's hook; the barrier
// from the last shard hook to the window hook.
type windowTracer struct {
	base     time.Time
	names    []string // shard span names
	shardEnd []int64  // written only by shard i's goroutine during a window
	winStart int64
	run      int // the open sim.run span
	spans    []span
	// children collects spans opened inside the next barrier (the trace
	// sink's writes); the window hook attaches them to that barrier.
	children []span
	runs     []int
	// Per window, in ns.
	wall, shardMax, shardSum, barrier []float64
}

func attachTracer(h *world.Highway) *windowTracer {
	n := h.Kernel().Shards()
	t := &windowTracer{base: time.Now(), shardEnd: make([]int64, n)}
	for i := 0; i < n; i++ {
		t.names = append(t.names, fmt.Sprintf("sim.shard.%d", i))
	}
	h.Kernel().OnShardWindow(func(shard int, _ sim.Time) { t.shardEnd[shard] = t.now() })
	h.Kernel().OnWindow(func(sim.Time) { t.closeWindow() })
	return t
}

func (t *windowTracer) now() int64 { return time.Since(t.base).Nanoseconds() }

// op times run, one Run call, as a sim.run span around its windows.
func (t *windowTracer) op(run func() error) (int64, error) {
	start := t.now()
	t.winStart = start
	t.run = len(t.spans)
	t.runs = append(t.runs, t.run)
	t.spans = append(t.spans, span{Name: "sim.run", Start: start, End: start, Parent: -1})
	err := run()
	end := t.now()
	t.spans[t.run].End = end
	return end - start, err
}

// closeWindow runs at the end of every barrier and records the window's
// spans.
func (t *windowTracer) closeWindow() {
	end := t.now()
	start := t.winStart
	w := len(t.spans)
	t.spans = append(t.spans, span{Name: "sim.window", Start: start, End: end, Parent: t.run})
	var last, sum int64
	for i, e := range t.shardEnd {
		t.spans = append(t.spans, span{Name: t.names[i], Start: start, End: e, Parent: w})
		last = max(last, e)
		sum += e - start
	}
	bar := len(t.spans)
	t.spans = append(t.spans, span{Name: "sim.barrier", Start: last, End: end, Parent: w})
	for _, c := range t.children {
		c.Parent = bar
		t.spans = append(t.spans, c)
	}
	t.children = t.children[:0]
	t.wall = append(t.wall, float64(end-start))
	t.shardMax = append(t.shardMax, float64(last-start))
	t.shardSum = append(t.shardSum, float64(sum))
	t.barrier = append(t.barrier, float64(end-last))
	t.winStart = end
}

func (t *windowTracer) totals() phaseTotals {
	p := phaseTotals{Windows: len(t.wall), Shards: len(t.shardEnd)}
	for i := range t.wall {
		p.ShardMax += t.shardMax[i]
		p.ShardSum += t.shardSum[i]
		p.Barrier += t.barrier[i]
	}
	return p
}

// unaccounted is the share of the Run calls' wall time that no window
// covers: the sim.run spans' self time (worker start-up and shut-down).
// Inside a window, shard max plus barrier is the window by construction.
func (t *windowTracer) unaccounted() float64 {
	self := selfTimes(t.spans)
	var gap, wall int64
	for _, r := range t.runs {
		gap += self[r]
		wall += t.spans[r].dur()
	}
	return ratio(float64(gap), float64(wall))
}
