// Package sim provides a deterministic discrete-event simulation kernel.
//
// All KARYON subsystems run on virtual time supplied by a Kernel: an event
// heap ordered by (time, sequence number) executed by a single goroutine.
// Virtual time makes every timing property in the reproduction (deadlines,
// inaccessibility durations, Level-of-Service switch bounds) exact and
// reproducible — Go's garbage collector cannot perturb measurements, which
// is the substitution DESIGN.md makes for the paper's real-time test-beds.
package sim

import (
	"container/heap"
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
	index    int
}

// eventHeap implements container/heap ordered by (at, seq).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	ev, ok := x.(*event)
	if !ok {
		return
	}
	ev.index = len(*h)
	*h = append(*h, ev)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
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
	heap.Push(&k.events, ev)
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
	for k.events.Len() > 0 {
		evAny := heap.Pop(&k.events)
		ev, ok := evAny.(*event)
		if !ok {
			continue
		}
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
		if k.events.Len() == 0 {
			break
		}
		next := k.events[0]
		if next.canceled {
			if ev, ok := heap.Pop(&k.events).(*event); ok {
				k.recycle(ev)
			}
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
func (k *Kernel) Pending() int { return k.events.Len() }

// reset discards every queued event (recycling it) and sets the clock to
// at. The executed counter is kept, and so is the sequence counter: it
// only breaks ties between events scheduled in the same window, so
// continuing it preserves determinism while fencing any stale Timer
// handles.
func (k *Kernel) reset(at Time) {
	for _, ev := range k.events {
		ev.index = 0
		k.recycle(ev)
	}
	k.events = k.events[:0]
	k.now = at
}
