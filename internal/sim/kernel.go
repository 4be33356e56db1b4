// Package sim provides KARYON's deterministic virtual time, in two
// engines.
//
// A Kernel is a discrete-event scheduler: an event heap ordered by (time,
// sequence number) executed by a single goroutine. The event-driven
// subsystems (MAC protocols, publish/subscribe, inaccessibility control,
// avionics) run on one.
//
// A ShardedKernel runs the time-triggered worlds: it splits one world into
// shards that advance in lockstep, one window at a time. In a window each
// shard runs its step loop on its own goroutine, stepping each of its
// entities once at a fixed phase; at the window edge a single-threaded
// barrier runs the window hooks, which apply the window's cross-entity
// effects in a fixed entity order.
//
// Virtual time makes every timing property in the reproduction
// (deadlines, inaccessibility durations, Level-of-Service switch bounds)
// exact and reproducible — Go's garbage collector cannot perturb
// measurements. It stands in for the paper's real-time test-beds.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is an instant of virtual time, in microseconds since simulation start.
type Time int64

// Common virtual-time unit conversions.
const (
	Microsecond Time = 1
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
	Hour        Time = 60 * Minute
)

// Duration converts a virtual instant (relative to zero) into a time.Duration.
func (t Time) Duration() time.Duration {
	return time.Duration(t) * time.Microsecond
}

// Seconds returns the instant expressed in floating-point seconds.
func (t Time) Seconds() float64 {
	return float64(t) / float64(Second)
}

// String renders the instant as a duration since simulation start.
func (t Time) String() string {
	return t.Duration().String()
}

// FromDuration converts a wall-style duration into virtual time units.
func FromDuration(d time.Duration) Time {
	return Time(d / time.Microsecond)
}

// FromSeconds converts floating-point seconds into virtual time units.
func FromSeconds(s float64) Time {
	return Time(s * float64(Second))
}

// event is a scheduled callback.
type event struct {
	at  Time
	seq uint64
	fn  func()
	// canceled events stay in the heap but are skipped when popped; this is
	// cheaper than heap removal and keeps ordering deterministic.
	canceled bool
}

// before orders events by (at, seq): a strict total order, since every
// event gets a fresh seq, so any correct heap pops the same sequence.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is a binary min-heap of events ordered by before.
type eventHeap []*event

// push adds ev and sifts it up to its place.
func (h *eventHeap) push(ev *event) {
	q := append(*h, ev)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
	*h = q
}

// pop removes and returns the earliest event; the heap must not be empty.
func (h *eventHeap) pop() *event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	q = q[:n]
	if n > 0 {
		// Sift last down from the root.
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && q[r].before(q[c]) {
				c = r
			}
			if !q[c].before(last) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = last
	}
	*h = q
	return top
}

// Kernel is a deterministic discrete-event scheduler. The zero value is not
// usable; construct with NewKernel. A Kernel is not safe for concurrent use:
// the simulation model is single-threaded by design; parallelism happens one
// kernel per goroutine (see internal/harness).
type Kernel struct {
	now     Time
	seq     uint64
	seed    int64
	events  eventHeap
	rng     *rand.Rand
	stopped bool

	// free recycles fired and canceled events so the Schedule/Step hot path
	// stops allocating once the queue reaches its high-water mark. Stale
	// Timer handles are fenced by the event's seq: reuse assigns a fresh
	// sequence number, so a handle to a recycled event can never cancel its
	// successor.
	free []*event

	// Executed counts events run since construction (for throughput benches).
	executed uint64
}

// NewKernel returns a kernel at virtual time zero with a deterministic
// random source derived from seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{
		seed: seed,
		rng:  rand.New(rand.NewSource(seed)),
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Seed returns the seed this kernel was constructed with. Harnesses use it
// to derive sub-kernel seeds so a replica remains a pure function of one
// number.
func (k *Kernel) Seed() int64 { return k.seed }

// Rand returns the kernel's deterministic random source. All model
// randomness must come from here so that a seed fully determines a run.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Executed reports how many events have been executed so far.
func (k *Kernel) Executed() uint64 { return k.executed }

// Timer identifies a scheduled event and allows cancellation. It is a value
// handle: the zero Timer is valid and behaves as already-fired. The seq
// snapshot fences recycled events — once the underlying event struct is
// reused for a later callback its seq changes, and the stale handle becomes
// inert.
type Timer struct {
	ev  *event
	seq uint64
}

// Cancel prevents the timer's callback from running. Canceling an
// already-fired or already-canceled timer is a no-op. It reports whether the
// callback was still pending.
func (t Timer) Cancel() bool {
	if t.ev == nil || t.ev.seq != t.seq || t.ev.canceled || t.ev.fn == nil {
		return false
	}
	t.ev.canceled = true
	return true
}

// Pending reports whether the timer's callback has not yet run or been
// canceled.
func (t Timer) Pending() bool {
	return t.ev != nil && t.ev.seq == t.seq && !t.ev.canceled && t.ev.fn != nil
}

// Schedule runs fn after delay units of virtual time. A non-positive delay
// schedules fn at the current instant, after all events already scheduled
// for this instant. It returns a Timer that can cancel the callback.
func (k *Kernel) Schedule(delay Time, fn func()) Timer {
	if delay < 0 {
		delay = 0
	}
	return k.At(k.now+delay, fn)
}

// At runs fn at the absolute virtual instant t. Instants in the past are
// clamped to now.
func (k *Kernel) At(t Time, fn func()) Timer {
	if t < k.now {
		t = k.now
	}
	var ev *event
	if n := len(k.free); n > 0 {
		ev = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		*ev = event{at: t, seq: k.seq, fn: fn}
	} else {
		ev = &event{at: t, seq: k.seq, fn: fn}
	}
	k.seq++
	k.events.push(ev)
	return Timer{ev: ev, seq: ev.seq}
}

// recycle returns a popped event to the free list. Callers must have copied
// every field they still need: the struct may be handed out again by the
// next At call.
func (k *Kernel) recycle(ev *event) {
	ev.fn = nil
	k.free = append(k.free, ev)
}

// Every runs fn every period units of virtual time, starting one period from
// now, until the returned Ticker is stopped. Period must be positive.
func (k *Kernel) Every(period Time, fn func()) (*Ticker, error) {
	if period <= 0 {
		return nil, fmt.Errorf("sim: ticker period %d must be positive", period)
	}
	t := &Ticker{kernel: k, period: period, fn: fn}
	t.arm()
	return t, nil
}

// Ticker re-schedules a callback at a fixed period until stopped.
type Ticker struct {
	kernel  *Kernel
	period  Time
	fn      func()
	timer   Timer
	stopped bool
}

func (t *Ticker) arm() {
	t.timer = t.kernel.Schedule(t.period, func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.arm()
		}
	})
}

// Stop cancels the ticker. Safe to call multiple times.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.timer.Cancel()
}

// Stop halts the run loop after the current event completes.
func (k *Kernel) Stop() { k.stopped = true }

// Step executes the next pending event, advancing virtual time to it. It
// reports whether an event was executed (false when the queue is empty or
// only canceled events remain).
func (k *Kernel) Step() bool {
	for len(k.events) > 0 {
		ev := k.events.pop()
		if ev.canceled {
			k.recycle(ev)
			continue
		}
		k.now = ev.at
		fn := ev.fn
		// Recycle before running: fn's own fields are copied out, and any
		// Schedule call inside fn may reuse the struct under a fresh seq.
		k.recycle(ev)
		k.executed++
		fn()
		return true
	}
	return false
}

// Run executes events until virtual time exceeds until, the event queue
// drains, or Stop is called. On return the clock rests at min(until, last
// event time): if the horizon cut execution short the clock is advanced to
// the horizon so repeated Run calls compose.
func (k *Kernel) Run(until Time) {
	k.stopped = false
	for !k.stopped {
		if len(k.events) == 0 {
			break
		}
		next := k.events[0]
		if next.canceled {
			k.recycle(k.events.pop())
			continue
		}
		if next.at > until {
			break
		}
		k.Step()
	}
	if k.now < until {
		k.now = until
	}
}

// RunFor executes events for d units of virtual time from now.
func (k *Kernel) RunFor(d Time) {
	k.Run(k.now + d)
}

// RunUntilIdle executes events until the queue drains or Stop is called.
// Use with care: models with tickers never go idle.
func (k *Kernel) RunUntilIdle() {
	k.stopped = false
	for !k.stopped && k.Step() {
	}
}

// Pending reports the number of events (including canceled placeholders)
// still queued.
func (k *Kernel) Pending() int { return len(k.events) }
