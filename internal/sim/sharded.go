package sim

import (
	"context"
	"fmt"
	"sync"
)

// SplitSeed derives an independent seed from (seed, stream) with a
// splitmix64-style mixer. Sharded models use it to give every entity (car,
// radio, sensor) its own deterministic random stream, so that a model's
// output does not depend on which shard an entity happens to run on.
func SplitSeed(seed, stream int64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream)*0xBF58476D1CE4E5B9
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// Shard is one partition of a ShardedKernel: its clock and the count of
// events taken on it. During a window each shard runs its OnShardWindow
// hooks on its own goroutine; a shard's clock must only be touched from
// those hooks (or from the single-threaded barrier between windows).
type Shard struct {
	idx    int
	now    Time
	events uint64

	// Keeps the shards' clocks and counts, written on every event, off
	// each other's cache lines.
	_ [64]byte
}

// Index returns the shard's position in the partition.
func (s *Shard) Index() int { return s.idx }

// Now returns the shard's clock: the instant of its latest step inside a
// window, and the window edge once the window is over.
func (s *Shard) Now() Time { return s.now }

// Advance moves the shard's clock forward to at for one model event and
// counts the event into Executed; an Advance to the current instant
// counts an event without moving the clock. A model steps its entities in
// time order, so a clock that would move back is a model bug: Advance
// panics, and the panic fails the window.
func (s *Shard) Advance(at Time) {
	if at < s.now {
		panic(fmt.Sprintf("sim: shard %d clock moved back from %v to %v", s.idx, s.now, at))
	}
	s.now = at
	s.events++
}

// ShardedKernel partitions one simulation across n shards that advance in
// lockstep through conservative time windows. Within a window the shards
// run their OnShardWindow hooks in parallel (one goroutine per shard): a
// time-triggered model registers its step loop there, stepping the
// shard's entities in time order. At each window edge a single-threaded
// barrier runs the registered window hooks (state exchange, entity
// handoff), which may fan work out to every shard through Stage.
//
// Determinism: for a model whose (a) shard hooks write only state their
// shard owns, applying every cross-entity effect at the barrier (OnWindow
// hooks, Stage) in a fixed entity order, (b) entities draw their
// randomness from SplitSeed streams, and (c) shared metrics accumulate
// only at barriers in a fixed entity order, the run's output is
// byte-identical for every shard count — the window edges and the hook
// order are independent of the partition.
type ShardedKernel struct {
	seed       int64
	window     Time
	now        Time
	shards     []*Shard
	hooks      []func(edge Time)
	shardHooks []func(shard int, edge Time)

	// failed latches the first window error: a poisoned sharded run must
	// not silently continue half-advanced.
	failed error

	// errs holds one per-shard slot for errors recovered inside a window,
	// reset (not reallocated) at every dispatch.
	errs []error

	// workers are the fan-out channels for shards 1..n-1; shard 0 always
	// runs inline on the coordinating goroutine. The worker goroutines
	// themselves live only for the duration of one Run call (an idle
	// kernel must hold no goroutines — tests build thousands and there is
	// no Close), but the channels are allocated once, so the steady-state
	// window dispatch allocates nothing. running is set while they are up.
	workers []chan shardJob
	running bool
	wg      sync.WaitGroup // per-window shard completion
	stopWG  sync.WaitGroup // worker exit at the end of Run
}

// shardJob describes one unit of work for one shard: a window's hooks up
// to edge, or, when stage is set, one call of a barrier stage. It is sent
// by value over the worker channels; the stage is a func value the caller
// already holds, so dispatch does not allocate.
type shardJob struct {
	edge  Time
	stage func(shard int)
	stop  bool // sentinel: worker exits
}

// NewShardedKernel creates a sharded kernel over n partitions with the
// given synchronization window (the model's conservative lookahead). The
// seed is the model's: it derives per-entity SplitSeed streams from it.
func NewShardedKernel(seed int64, n int, window Time) (*ShardedKernel, error) {
	if n < 1 {
		return nil, fmt.Errorf("sim: shard count %d must be at least 1", n)
	}
	if window <= 0 {
		return nil, fmt.Errorf("sim: sync window %d must be positive", window)
	}
	sk := &ShardedKernel{seed: seed, window: window}
	for i := 0; i < n; i++ {
		sk.shards = append(sk.shards, &Shard{idx: i})
	}
	sk.errs = make([]error, n)
	return sk, nil
}

// Seed returns the seed the sharded kernel was constructed with.
func (sk *ShardedKernel) Seed() int64 { return sk.seed }

// Window returns the synchronization window.
func (sk *ShardedKernel) Window() Time { return sk.window }

// Shards returns the number of partitions.
func (sk *ShardedKernel) Shards() int { return len(sk.shards) }

// Shard returns partition i.
func (sk *ShardedKernel) Shard(i int) *Shard { return sk.shards[i] }

// Now returns the last window edge every shard has reached.
func (sk *ShardedKernel) Now() Time { return sk.now }

// Executed returns the total number of events executed: the sum of the
// shards' Advance counts. A model counts each of its events with one
// Advance at that event's instant.
func (sk *ShardedKernel) Executed() uint64 {
	var total uint64
	for _, s := range sk.shards {
		total += s.events
	}
	return total
}

// OnWindow registers a hook that runs single-threaded at every window edge,
// once every shard has finished the window. Hooks run in registration
// order; models use them to apply the window's cross-entity effects —
// snapshot exchange, message delivery, entity handoff, and metric
// accumulation — in a fixed entity order.
func (sk *ShardedKernel) OnWindow(fn func(edge Time)) {
	sk.hooks = append(sk.hooks, fn)
}

// OnShardWindow registers a per-shard window hook: every window, each
// shard runs its hooks in registration order on its own goroutine, before
// the single-threaded barrier (the OnWindow hooks). edge is the instant
// that closes the window. A model registers its step loop first: it
// Advances the shard's clock to each of its entities' step instants in
// turn and steps the entity. Later hooks do work that is parallel per
// partition but must complete before the barrier — e.g. refreshing and
// re-sorting a shard-local snapshot — so the barrier itself only pays for
// reconciliation, not for world-sized rebuilds. Once the hooks return the
// shard's clock rests at edge.
//
// Discipline: the hook for shard i runs concurrently with other shards'
// hooks, so it must touch only state owned by shard i (plus immutable
// shared state). It must not read other shards' entities: an effect on
// another entity is recorded in shard i's own state and applied at the
// barrier.
func (sk *ShardedKernel) OnShardWindow(fn func(shard int, edge Time)) {
	sk.shardHooks = append(sk.shardHooks, fn)
}

// NextEdge returns the first window edge at or after t: the edge that
// closes the window a step at t runs in (0 for t <= 0).
func (sk *ShardedKernel) NextEdge(t Time) Time {
	if t <= 0 {
		return 0
	}
	return (t + sk.window - 1) / sk.window * sk.window
}

// Warp rewinds (or fast-forwards) the whole sharded kernel to a window
// edge without executing anything: every shard's clock and the barrier
// clock move to at. The caller is responsible for restoring the model's
// state for the window that opens at the target — this is the restore
// half of trace replay. Executed() keeps counting from where it was. The
// target must be non-negative and on the window grid.
func (sk *ShardedKernel) Warp(at Time) error {
	if sk.failed != nil {
		return sk.failed
	}
	if at < 0 || at%sk.window != 0 {
		return fmt.Errorf("sim: warp target %v is not on the window grid (%v)", at, sk.window)
	}
	for _, s := range sk.shards {
		s.now = at
	}
	sk.now = at
	return nil
}

// windowError wraps a panic recovered inside a sharded window so callers
// can identify which phase (shard window, barrier stage, window hook)
// blew up.
func windowError(phase string, edge Time, p any) error {
	return fmt.Errorf("sim: panic in %s at window edge %v: %v", phase, edge, p)
}

// Run advances all shards window by window to until, rounded up to the
// window grid: barriers only ever fall on multiples of the window. Run
// stops early with an error when ctx is cancelled (checked at every
// barrier, so a cancellation mid-window surfaces at the next edge rather
// than hanging) or when any shard hook, barrier stage, or window hook
// panics. A failed sharded kernel stays failed: subsequent Run calls
// return the same error.
func (sk *ShardedKernel) Run(ctx context.Context, until Time) error {
	if sk.failed != nil {
		return sk.failed
	}
	until = sk.NextEdge(until)
	sk.startWorkers()
	defer sk.stopWorkers()
	for sk.now < until {
		if err := ctx.Err(); err != nil {
			sk.failed = fmt.Errorf("sim: sharded run cancelled at %v: %w", sk.now, err)
			return sk.failed
		}
		if err := sk.runWindow(sk.now + sk.window); err != nil {
			sk.failed = err
			return err
		}
	}
	return nil
}

// startWorkers spawns one worker goroutine per shard past the first for
// the duration of a Run call: every window inside the Run dispatches
// through the reused channels instead of spawning a goroutine per shard
// per window. The spawn cost is amortized over all the windows of the Run
// and an idle kernel holds no goroutines. Single-shard kernels skip the
// machinery entirely.
func (sk *ShardedKernel) startWorkers() {
	if len(sk.shards) == 1 {
		return
	}
	sk.running = true
	if sk.workers == nil {
		sk.workers = make([]chan shardJob, len(sk.shards)-1)
		for i := range sk.workers {
			sk.workers[i] = make(chan shardJob, 1)
		}
	}
	sk.stopWG.Add(len(sk.workers))
	for i, ch := range sk.workers {
		go sk.shardWorker(sk.shards[i+1], ch)
	}
}

// stopWorkers sends every worker its exit sentinel and waits for them to
// return, so a finished Run leaves no goroutines behind.
func (sk *ShardedKernel) stopWorkers() {
	if len(sk.shards) == 1 {
		return
	}
	for _, ch := range sk.workers {
		ch <- shardJob{stop: true}
	}
	sk.stopWG.Wait()
	sk.running = false
}

func (sk *ShardedKernel) shardWorker(s *Shard, jobs chan shardJob) {
	defer sk.stopWG.Done()
	for job := range jobs {
		if job.stop {
			return
		}
		sk.runJob(s, job)
		sk.wg.Done()
	}
}

// runJob executes one shard's job — one window's per-shard hooks, or one
// call of a barrier stage — recording any panic in the shard's errs slot.
func (sk *ShardedKernel) runJob(s *Shard, job shardJob) {
	defer func() {
		if p := recover(); p != nil {
			phase := fmt.Sprintf("shard %d", s.idx)
			if job.stage != nil {
				phase = "barrier stage on " + phase
			}
			sk.errs[s.idx] = windowError(phase, job.edge, p)
		}
	}()
	if job.stage != nil {
		job.stage(s.idx)
		return
	}
	for _, fn := range sk.shardHooks {
		fn(s.idx, job.edge)
	}
	s.now = job.edge
}

// dispatch runs one job on every shard: shards 1..n-1 through the Run
// workers, shard 0 inline on the coordinating goroutine, returning once
// every shard has finished, with the lowest-indexed shard's error.
// Allocation-free in the steady state.
func (sk *ShardedKernel) dispatch(job shardJob) error {
	for i := range sk.errs {
		sk.errs[i] = nil
	}
	sk.wg.Add(len(sk.workers))
	for _, ch := range sk.workers {
		ch <- job
	}
	sk.runJob(sk.shards[0], job)
	sk.wg.Wait()
	for _, err := range sk.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Stage runs fn(shard) exactly once for every shard, in parallel on the
// Run's shard workers, and returns when every call has finished. It is
// the barrier's parallel phase: call it only from barrier context (a
// window hook). Every shard is idle then, so fn(i) may write state owned
// by shard i and read anything no concurrent call writes; it must not
// Advance. Models reconcile the calls' results afterwards in shard order,
// which keeps the output independent of the width.
//
// At width 1, and outside Run (when no workers are up), the calls run
// inline in shard order. Stage allocates nothing. A panic in fn becomes a
// window error naming the stage and shard; Stage returns it and latches
// it, so the Run fails at this barrier and the kernel stays failed.
func (sk *ShardedKernel) Stage(fn func(shard int)) error {
	if sk.failed != nil {
		return sk.failed
	}
	job := shardJob{edge: sk.now, stage: fn}
	if sk.running {
		sk.failed = sk.dispatch(job)
		return sk.failed
	}
	for _, s := range sk.shards {
		sk.errs[s.idx] = nil
		sk.runJob(s, job)
		if err := sk.errs[s.idx]; err != nil {
			sk.failed = err
			return err
		}
	}
	return nil
}

// runWindow executes one window in parallel across shards, then performs
// the single-threaded barrier: the window hooks. Now() reads the new edge
// throughout the barrier — every shard has already reached it.
func (sk *ShardedKernel) runWindow(edge Time) error {
	if err := sk.dispatch(shardJob{edge: edge}); err != nil {
		return err
	}
	sk.now = edge
	for _, hook := range sk.hooks {
		if err := runHook(hook, edge); err != nil {
			return err
		}
		if sk.failed != nil {
			return sk.failed // a barrier stage inside the hook failed
		}
	}
	return nil
}

func runHook(hook func(Time), edge Time) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = windowError("window hook", edge, p)
		}
	}()
	hook(edge)
	return nil
}
