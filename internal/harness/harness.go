// Package harness unifies KARYON's two execution paths — the named
// scenarios of cmd/karyon-sim and the E1..E16 experiment registry — behind
// one replicated, seed-matrix runner.
//
// A Scenario is a pure function of a replica seed: configure, build its
// own model (a world on a sim.ShardedKernel of the requested width, or an
// event-driven model on a fresh sim.Kernel), run, collect a structured
// metrics.Result. The Runner executes N replicas of a scenario across a
// worker pool (each replica builds its own kernels; kernels are never
// shared) and merges the replica results in seed order, so the aggregated
// output is byte-identical regardless of the parallelism that produced
// it. The paper's safety argument is probabilistic — evidence comes from
// many replicated runs, not single traces — and this package is what
// makes "many" cheap.
//
// Where the replicas execute is a Backend: Runner's zero value uses the
// in-process LocalBackend, and the karyon-d service (internal/service)
// builds on the same Runner — local execution today, remote execution
// tomorrow. Backends can also stream each replica's result in seed order
// as it completes (Runner.RunStream), which is what makes a run's NDJSON
// result stream deterministic enough to be content-addressed and cached.
package harness

import (
	"context"

	"karyon/internal/metrics"
)

// Scenario is one runnable simulation. Implementations must be pure
// functions of (seed, scenario config) — all randomness derived from the
// seed, no wall-clock, no shared mutable state — so that replicas
// parallelize safely and a seed matrix fully determines the aggregate.
type Scenario interface {
	Name() string
	// Run builds the replica's model from seed, runs it to completion, and
	// collects its result. shards (at least 1) is the width of the
	// sim.ShardedKernel a partitioned world splits across; like Parallel
	// it affects wall time only, so the result must not depend on it, and
	// a scenario without a partitioned world ignores it. Cancellation of
	// ctx must surface as an error (sim.ShardedKernel.Run checks it at
	// every window barrier).
	Run(ctx context.Context, seed int64, shards int) (*metrics.Result, error)
}

// SeedStride spaces replica seeds. Experiments derive sub-kernel seeds by
// small offsets from their base seed (seed+1, seed+2, ...); a wide prime
// stride keeps replica seed ranges disjoint so replicas never reuse each
// other's sub-streams.
const SeedStride = 1_000_003

// Seeds returns the deterministic seed matrix for a base seed: replica i
// runs with base + i*SeedStride.
func Seeds(base int64, replicas int) []int64 {
	if replicas < 1 {
		replicas = 1
	}
	seeds := make([]int64, replicas)
	for i := range seeds {
		seeds[i] = base + int64(i)*SeedStride
	}
	return seeds
}

// Options configures one replicated run.
type Options struct {
	// Seed is the base of the seed matrix.
	Seed int64
	// Replicas is the number of independent runs to aggregate (min 1).
	Replicas int
	// Parallel is the worker-pool width (min 1). It affects wall time only:
	// the aggregated output is identical for every value.
	Parallel int
	// Shards splits each replica's world across this many shards (min 1).
	// Only scenarios with a partitioned world use it; like Parallel it
	// affects wall time only — the output is byte-identical for every
	// value.
	Shards int
}

func (o Options) normalized() Options {
	if o.Replicas < 1 {
		o.Replicas = 1
	}
	if o.Parallel < 1 {
		o.Parallel = 1
	}
	if o.Parallel > o.Replicas {
		o.Parallel = o.Replicas
	}
	if o.Shards < 1 {
		o.Shards = 1
	}
	return o
}

// Report is the outcome of one replicated scenario run.
type Report struct {
	Name     string           `json:"name"`
	BaseSeed int64            `json:"base_seed"`
	Seeds    []int64          `json:"seeds"`
	Summary  *metrics.Summary `json:"summary"`
}

// Run executes the scenario once per seed in the matrix, fanning replicas
// across opts.Parallel workers of the in-process backend, and aggregates
// the results in seed order. A failed, panicked, or cancelled replica
// surfaces as an error — never as a silent gap in the aggregate. It is
// shorthand for Runner{}.Run; use a Runner with an explicit Backend to
// execute elsewhere.
func Run(ctx context.Context, s Scenario, opts Options) (*Report, error) {
	return Runner{}.Run(ctx, s, opts)
}
