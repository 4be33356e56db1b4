package sim

import (
	"cmp"
	"context"
	"fmt"
	"slices"
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

// message is one cross-shard mailbox entry: a callback addressed to a
// destination shard at (or after) a future instant. Sender identifies the
// originating entity — NOT the originating shard — so that the drain order
// is a pure function of the model, independent of how entities are
// partitioned.
type message struct {
	dst    int
	at     Time
	sender int64
	fn     func()
}

// Shard is one partition of a ShardedKernel: a private event queue (its own
// Kernel, with its own free list) plus an outbox of cross-shard messages.
// During a window, each shard runs on its own goroutine; a shard's Kernel
// and outbox must only be touched from that shard's events (or from the
// single-threaded barrier between windows).
type Shard struct {
	idx    int
	kernel *Kernel
	sk     *ShardedKernel
	outbox []message
}

// Index returns the shard's position in the partition.
func (s *Shard) Index() int { return s.idx }

// Kernel returns the shard's private event kernel.
func (s *Shard) Kernel() *Kernel { return s.kernel }

// Send enqueues fn for execution on shard dst at virtual instant at. It is
// the only legal way for one shard's events to affect another shard.
//
// Messages are buffered in the sending shard's outbox and drained at the
// next window barrier, sorted by (at, sender, send order). The conservative
// contract: at must be no earlier than the edge of the window in which Send
// is called (the model's lookahead guarantees a frame cannot affect a
// neighboring shard sooner). Earlier instants are clamped to the drain edge
// and counted in Clamped — a nonzero count means the model's lookahead
// claim is wrong.
//
// A message whose instant has arrived by drain time executes during the
// barrier itself (single-threaded, deterministic order); later instants are
// scheduled onto the destination shard's kernel.
func (s *Shard) Send(dst int, at Time, sender int64, fn func()) {
	if dst < 0 || dst >= len(s.sk.shards) {
		panic(fmt.Sprintf("sim: Send to unknown shard %d of %d", dst, len(s.sk.shards)))
	}
	s.outbox = append(s.outbox, message{dst: dst, at: at, sender: sender, fn: fn})
}

// ShardedKernel partitions one simulation across n shard kernels that
// advance in lockstep through conservative time windows. Within a window
// shards execute their event queues in parallel (one goroutine per shard);
// at each window edge a single-threaded barrier drains cross-shard
// mailboxes in deterministic order and runs the registered window hooks
// (state exchange, entity handoff).
//
// Determinism: for a model that (a) routes every cross-entity interaction
// through Send, (b) draws per-entity randomness from SplitSeed streams
// rather than shard kernels, and (c) accumulates shared metrics only at
// barriers in a fixed entity order, the run's output is byte-identical for
// every shard count — the window edges, drain order, and hook order are all
// independent of the partition.
type ShardedKernel struct {
	seed       int64
	window     Time
	now        Time
	shards     []*Shard
	hooks      []func(edge Time)
	shardHooks []func(shard int, edge Time)

	// drainBuf is the merged-outbox scratch reused across barriers so the
	// drain stops allocating once it reaches its high-water mark.
	drainBuf []message

	// barrierExec counts mailbox messages executed at barriers (they bypass
	// the shard kernels, so Executed must add them back in).
	barrierExec uint64
	clamped     uint64

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
	// window dispatch allocates nothing.
	workers []chan shardJob
	wg      sync.WaitGroup // per-window shard completion
	stopWG  sync.WaitGroup // worker exit at the end of Run
}

// shardJob describes one window's worth of work for one shard. It is sent
// by value over the worker channels and carries no pointers, so dispatch
// does not allocate.
type shardJob struct {
	edge Time
	stop bool // sentinel: worker exits
}

// NewShardedKernel creates a sharded kernel over n partitions with the
// given synchronization window (the model's conservative lookahead). Each
// shard kernel gets an independent seed derived from (seed, shard index);
// shard-count-invariant models should ignore these and use SplitSeed
// per-entity streams instead.
func NewShardedKernel(seed int64, n int, window Time) (*ShardedKernel, error) {
	if n < 1 {
		return nil, fmt.Errorf("sim: shard count %d must be at least 1", n)
	}
	if window <= 0 {
		return nil, fmt.Errorf("sim: sync window %d must be positive", window)
	}
	sk := &ShardedKernel{seed: seed, window: window}
	for i := 0; i < n; i++ {
		sk.shards = append(sk.shards, &Shard{
			idx:    i,
			kernel: NewKernel(SplitSeed(seed, int64(i)+1)),
			sk:     sk,
		})
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

// Executed returns the total number of events executed across all shards,
// including mailbox messages executed at barriers.
func (sk *ShardedKernel) Executed() uint64 {
	total := sk.barrierExec
	for _, s := range sk.shards {
		total += s.kernel.Executed()
	}
	return total
}

// Clamped reports how many cross-shard messages violated the conservative
// contract (scheduled before their drain edge) and were clamped to it.
func (sk *ShardedKernel) Clamped() uint64 { return sk.clamped }

// OnWindow registers a hook that runs single-threaded at every window edge,
// after the mailboxes have been drained. Hooks run in registration order;
// models use them for snapshot exchange, entity handoff, and metric
// accumulation in a fixed entity order.
func (sk *ShardedKernel) OnWindow(fn func(edge Time)) {
	sk.hooks = append(sk.hooks, fn)
}

// OnShardWindow registers a pre-barrier per-shard phase hook: it runs on
// every shard's own goroutine once that shard's event queue has drained to
// the window edge, before the single-threaded barrier (mailbox drain and
// OnWindow hooks). This is where a model does work that is parallel per
// partition but must complete before the barrier — e.g. refreshing and
// re-sorting a shard-local snapshot — so the barrier itself only pays for
// reconciliation, not for world-sized rebuilds.
//
// Discipline: the hook for shard i runs concurrently with other shards'
// event execution and hooks, so it must touch only state owned by shard i
// (plus immutable shared state). It must not Send, schedule events, or
// read other shards' entities.
func (sk *ShardedKernel) OnShardWindow(fn func(shard int, edge Time)) {
	sk.shardHooks = append(sk.shardHooks, fn)
}

// NextEdge returns the first window edge strictly after t... except when t
// is itself an edge, which is returned unchanged: an event running exactly
// at an edge belongs to the window that edge closes, so its mailbox
// messages drain at that same barrier.
func (sk *ShardedKernel) NextEdge(t Time) Time {
	if t <= 0 {
		return 0
	}
	return (t + sk.window - 1) / sk.window * sk.window
}

// Warp rewinds (or fast-forwards) the whole sharded kernel to a window
// edge without executing anything: every shard's event queue is emptied
// and its clock set to at, outboxes are cleared, and the barrier clock
// moves to at. The caller is responsible for re-seeding the model's
// state and event schedule for the window that opens at the target —
// this is the restore half of trace replay. Executed() keeps counting
// from where it was. The target must be non-negative and on the window
// grid.
func (sk *ShardedKernel) Warp(at Time) error {
	if sk.failed != nil {
		return sk.failed
	}
	if at < 0 || at%sk.window != 0 {
		return fmt.Errorf("sim: warp target %v is not on the window grid (%v)", at, sk.window)
	}
	for _, s := range sk.shards {
		s.kernel.reset(at)
		for i := range s.outbox {
			s.outbox[i].fn = nil
		}
		s.outbox = s.outbox[:0]
	}
	sk.now = at
	return nil
}

// windowError wraps a panic recovered inside a sharded window so callers
// can identify which phase (shard execution, barrier drain, window hook)
// blew up.
func windowError(phase string, edge Time, p any) error {
	return fmt.Errorf("sim: panic in %s at window edge %v: %v", phase, edge, p)
}

// Run advances all shards to until, window by window. Barriers stay on
// the NextEdge grid (multiples of the window): a horizon that is not a
// window multiple closes with one short window, and the next Run
// re-aligns to the grid — so models computing delivery instants with
// NextEdge never violate the conservative contract across repeated Run
// calls. Run stops early with an error when ctx is cancelled (checked at
// every barrier, so a cancellation mid-window surfaces at the next edge
// rather than hanging) or when any shard event, drained message, or
// window hook panics. A failed sharded kernel stays failed: subsequent
// Run calls return the same error.
func (sk *ShardedKernel) Run(ctx context.Context, until Time) error {
	if sk.failed != nil {
		return sk.failed
	}
	sk.startWorkers()
	defer sk.stopWorkers()
	for sk.now < until {
		if err := ctx.Err(); err != nil {
			sk.failed = fmt.Errorf("sim: sharded run cancelled at %v: %w", sk.now, err)
			return sk.failed
		}
		edge := sk.NextEdge(sk.now + 1)
		if edge > until {
			edge = until
		}
		if err := sk.runWindow(edge); err != nil {
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
}

func (sk *ShardedKernel) shardWorker(s *Shard, jobs chan shardJob) {
	defer sk.stopWG.Done()
	for job := range jobs {
		if job.stop {
			return
		}
		sk.runShardWindow(s, job)
		sk.wg.Done()
	}
}

// runShardWindow executes one shard's half of one window — event-queue
// drain plus the per-shard hooks — recording any panic in the shard's
// errs slot.
func (sk *ShardedKernel) runShardWindow(s *Shard, job shardJob) {
	defer func() {
		if p := recover(); p != nil {
			sk.errs[s.idx] = windowError(fmt.Sprintf("shard %d", s.idx), job.edge, p)
		}
	}()
	s.kernel.Run(job.edge)
	for _, fn := range sk.shardHooks {
		fn(s.idx, job.edge)
	}
}

// dispatch runs one window's parallel shard phase: shards 1..n-1 through
// the Run workers, shard 0 inline on the coordinating goroutine, returning
// once every shard has finished. Allocation-free in the steady state.
func (sk *ShardedKernel) dispatch(job shardJob) error {
	for i := range sk.errs {
		sk.errs[i] = nil
	}
	sk.wg.Add(len(sk.workers))
	for _, ch := range sk.workers {
		ch <- job
	}
	sk.runShardWindow(sk.shards[0], job)
	sk.wg.Wait()
	for _, err := range sk.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runWindow executes one window in parallel across shards, then performs
// the single-threaded barrier: mailbox drain followed by window hooks.
// Now() reads the new edge throughout the barrier — every shard kernel has
// already reached it.
func (sk *ShardedKernel) runWindow(edge Time) error {
	if err := sk.dispatch(shardJob{edge: edge}); err != nil {
		return err
	}
	sk.now = edge
	if err := sk.drain(edge); err != nil {
		return err
	}
	for _, hook := range sk.hooks {
		if err := runHook(hook, edge); err != nil {
			return err
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

// drain merges every shard's outbox and applies the messages in
// deterministic order: stable-sorted by (at, sender), which preserves each
// sender's program order because one sender's messages all live in one
// outbox. Messages due now execute at the barrier; future ones are
// scheduled onto their destination shard's kernel.
func (sk *ShardedKernel) drain(edge Time) (err error) {
	pending := sk.drainBuf[:0]
	for _, s := range sk.shards {
		pending = append(pending, s.outbox...)
		s.outbox = s.outbox[:0]
	}
	sk.drainBuf = pending[:0]
	if len(pending) == 0 {
		return nil
	}
	// Capture-free comparator: sort.SliceStable's interface boxing and
	// closure cost one allocation per barrier; the generic stable sort
	// costs none.
	slices.SortStableFunc(pending, func(a, b message) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.sender, b.sender)
	})
	defer func() {
		if p := recover(); p != nil {
			err = windowError("mailbox drain", edge, p)
		}
	}()
	for _, m := range pending {
		if m.at <= edge {
			if m.at < edge {
				sk.clamped++
			}
			sk.barrierExec++
			m.fn()
			continue
		}
		sk.shards[m.dst].kernel.At(m.at, m.fn)
	}
	// Drop the closure references so the reused scratch does not pin a
	// window's worth of captures until the next barrier.
	for i := range pending {
		pending[i].fn = nil
	}
	return nil
}
