package world

import (
	"cmp"
	"slices"

	"karyon/internal/sim"
)

// scheduled is one world-level action pinned to a barrier.
type scheduled struct {
	at  sim.Time
	seq int
	fn  func()
}

// barrierScheduler is the window-barrier plumbing shared by the
// partitioned worlds: deferred world actions (campaign injections, jams),
// observer hooks, and the stop latch. All of it executes single-threaded
// at window edges, in deterministic (at, insertion) order.
type barrierScheduler struct {
	pending []scheduled
	// due is the runPending scratch, reused across barriers so draining
	// scheduled actions stops allocating once it hits its high-water mark.
	due     []scheduled
	pendSeq int
	hooks   []func(now sim.Time)
	stopped bool
}

// Schedule runs fn at the first window barrier at or after at. The
// callback executes single-threaded and may touch any entity or the world
// — it is how campaigns inject faults, jams, and disturbances into a
// running sharded world.
func (b *barrierScheduler) Schedule(at sim.Time, fn func()) {
	b.pendSeq++
	b.pending = append(b.pending, scheduled{at: at, seq: b.pendSeq, fn: fn})
}

// OnWindow registers a hook that runs single-threaded at every window
// barrier after the world's own accounting (campaign probes, observers).
func (b *barrierScheduler) OnWindow(fn func(now sim.Time)) {
	b.hooks = append(b.hooks, fn)
}

// Stop halts the world: from the next window on, no car steps.
func (b *barrierScheduler) Stop() { b.stopped = true }

// runPending executes scheduled actions due at this edge in (at,
// insertion) order. The due list is partitioned into a reused scratch
// buffer, and the stable sort is skipped when the due actions already
// arrive in (at, seq) order — the common case, since schedulers mostly
// append monotonically increasing instants.
func (b *barrierScheduler) runPending(edge sim.Time) {
	if len(b.pending) == 0 {
		return
	}
	due := b.due[:0]
	rest := b.pending[:0]
	ordered := true
	for _, s := range b.pending {
		if s.at <= edge {
			if n := len(due); n > 0 && (due[n-1].at > s.at ||
				(due[n-1].at == s.at && due[n-1].seq > s.seq)) {
				ordered = false
			}
			due = append(due, s)
		} else {
			rest = append(rest, s)
		}
	}
	b.pending = rest
	if !ordered {
		slices.SortStableFunc(due, func(a, b scheduled) int {
			if c := cmp.Compare(a.at, b.at); c != 0 {
				return c
			}
			return cmp.Compare(a.seq, b.seq)
		})
	}
	for _, s := range due {
		s.fn()
	}
	// Drop the closure references before parking the scratch.
	for i := range due {
		due[i] = scheduled{}
	}
	b.due = due[:0]
}

// runHooks fires the observer hooks for this edge.
func (b *barrierScheduler) runHooks(edge sim.Time) {
	for _, fn := range b.hooks {
		fn(edge)
	}
}
