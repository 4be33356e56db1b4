package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"karyon/internal/metrics"
)

// PanicError reports a replica whose scenario panicked. The backend
// recovers the panic so one bad scenario fails only its run — never the
// process hosting it (the karyon-d daemon in particular) — and captures
// the goroutine stack at the panic site so the failure is debuggable from
// the job status alone.
type PanicError struct {
	// Value is what was passed to panic, rendered as a string.
	Value string
	// Stack is the panicking goroutine's stack (runtime/debug.Stack form).
	Stack string
}

// Error keeps the one-line form; the stack travels as a field so callers
// (the service's job status) can surface it separately.
func (e *PanicError) Error() string {
	return fmt.Sprintf("scenario panicked: %s", e.Value)
}

// ReplicaEmit receives one replica's result during a streaming run. The
// backend calls it once per replica in seed order — replica i is emitted as
// soon as it and every earlier replica have completed — so consumers can
// forward results incrementally while keeping the stream a pure function of
// (scenario config, seed matrix). Calls are serialized (never concurrent)
// but may happen on a worker goroutine; the callback must not block for
// long or it stalls the pool.
type ReplicaEmit func(index int, seed int64, res *metrics.Result)

// Backend executes replicated scenario runs on some substrate. The local
// backend is the in-process worker pool this package has always had; the
// interface exists so callers — the karyon-d service today, remote
// executors tomorrow — depend on "run this seed matrix", not on where it
// runs. Implementations must uphold the harness determinism contract: the
// Report, and the byte content and order of emitted replica results, are
// pure functions of (scenario, Options.Seed, Options.Replicas,
// Options.Shards) — never of the backend or its parallelism.
type Backend interface {
	// Name identifies the backend in logs and service stats.
	Name() string
	// Run executes the scenario once per seed in the matrix and returns the
	// seed-order aggregate. If emit is non-nil it is invoked as described on
	// ReplicaEmit; on error, emission stops at the first incomplete or
	// failed replica and Run reports the failure.
	Run(ctx context.Context, s Scenario, opts Options, emit ReplicaEmit) (*Report, error)
}

// Runner executes replicated runs through a pluggable Backend. The zero
// value runs in process (LocalBackend); the karyon-d service wraps one
// Runner per worker slot, and a future remote backend slots in here
// without touching any call site.
type Runner struct {
	Backend Backend
}

func (r Runner) backend() Backend {
	if r.Backend == nil {
		return LocalBackend{}
	}
	return r.Backend
}

// Run executes the scenario across the seed matrix and returns the
// aggregated report.
func (r Runner) Run(ctx context.Context, s Scenario, opts Options) (*Report, error) {
	return r.backend().Run(ctx, s, opts, nil)
}

// RunStream is Run plus incremental delivery: emit receives each replica
// result in seed order as soon as it is available (see ReplicaEmit).
func (r Runner) RunStream(ctx context.Context, s Scenario, opts Options, emit ReplicaEmit) (*Report, error) {
	return r.backend().Run(ctx, s, opts, emit)
}

// LocalBackend runs replicas on an in-process worker pool: one
// deterministic kernel per goroutine, kernels never shared, results merged
// in seed order. It is the execution engine behind the package-level Run.
type LocalBackend struct{}

// Name implements Backend.
func (LocalBackend) Name() string { return "local" }

// Run implements Backend. A failed, panicked, or cancelled replica
// surfaces as an error — never as a silent gap in the aggregate or the
// emitted stream.
func (LocalBackend) Run(ctx context.Context, s Scenario, opts Options, emit ReplicaEmit) (*Report, error) {
	opts = opts.normalized()
	seeds := Seeds(opts.Seed, opts.Replicas)
	results := make([]*metrics.Result, len(seeds))
	errs := make([]error, len(seeds))

	idx := make(chan int, len(seeds))
	for i := range seeds {
		idx <- i
	}
	close(idx)

	// finished releases completed replicas to emit in seed order: worker
	// goroutines complete out of order, so each completion drains the
	// longest fully-done prefix. A failed replica stops the stream — the
	// run errors as a whole, and a partial suffix must not leak.
	var emitMu sync.Mutex
	done := make([]bool, len(seeds))
	next := 0
	finished := func(i int) {
		if emit == nil {
			return
		}
		emitMu.Lock()
		defer emitMu.Unlock()
		done[i] = true
		for next < len(seeds) && done[next] && errs[next] == nil && results[next] != nil {
			emit(next, seeds[next], results[next])
			next++
		}
	}

	// failed short-circuits queued replicas once any replica errs; their
	// slots stay nil but the run reports the first error anyway.
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < opts.Parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if failed.Load() {
					continue
				}
				results[i], errs[i] = runReplica(ctx, s, seeds[i], opts.Shards)
				if errs[i] != nil {
					failed.Store(true)
				}
				finished(i)
			}
		}()
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("harness: %s replica %d (seed %d): %w", s.Name(), i, seeds[i], err)
		}
	}
	return &Report{
		Name:     s.Name(),
		BaseSeed: opts.Seed,
		Seeds:    seeds,
		Summary:  metrics.Aggregate(results),
	}, nil
}

func runReplica(ctx context.Context, s Scenario, seed int64, shards int) (res *metrics.Result, err error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Value: fmt.Sprint(p), Stack: string(debug.Stack())}
		}
	}()
	res, err = s.Run(ctx, seed, shards)
	if err == nil && res == nil {
		err = errors.New("scenario returned no result")
	}
	return res, err
}
