// Package experiments contains one reproducible harness per experiment in
// EXPERIMENTS.md (E1..E16), each mapping a figure, section or use case of
// the KARYON paper to structured result records. Every harness is a pure
// function of its Config: identical configs produce identical results.
// Rendering (text tables, CSV) and across-replica aggregation live in
// internal/metrics; replicated parallel execution lives in
// internal/harness.
package experiments

import (
	"context"
	"sort"

	"karyon/internal/metrics"
	"karyon/internal/sim"
)

// Config parameterizes one experiment replica.
type Config struct {
	// Seed fully determines the replica.
	Seed int64
	// Short trades fidelity for wall time: fewer sweep points, shorter
	// simulated durations. Used by -short tests and smoke runs; statistical
	// claims should use the full-fidelity default.
	Short bool
	// Shards splits the replica's scenario worlds across this many shard
	// kernels (0/1 = unsharded). Experiments built on the partitioned
	// worlds (E2, E12, E13, E-MAC-S and the E14 integrated variant) honor
	// it; the sharded-world determinism contract guarantees the result
	// does not depend on it — like harness parallelism, it trades wall
	// time only.
	Shards int
	// Medium switches the world-building experiments' V2V path onto the
	// slot-level sharded radio medium (wireless.ShardedMedium). E2 and
	// E12 honor it; E-MAC-S always runs the medium (it is the subject).
	// Unlike Shards, this changes the modeled physics, so it is part of
	// the experiment's identity: results are comparable only at equal
	// Medium settings.
	Medium bool
}

// shards returns the effective shard width.
func (c Config) shards() int {
	if c.Shards < 1 {
		return 1
	}
	return c.Shards
}

// dur picks the full or the reduced simulated duration.
func (c Config) dur(full, short sim.Time) sim.Time {
	if c.Short {
		return short
	}
	return full
}

// n picks the full or the reduced count.
func (c Config) n(full, short int) int {
	if c.Short {
		return short
	}
	return full
}

// Experiment is one runnable harness.
type Experiment struct {
	// ID is the experiment identifier (e.g. "E5").
	ID string
	// Title names what is reproduced.
	Title string
	// Anchor cites the paper location.
	Anchor string
	// Replicas is the experiment's default replica count (0 means 1).
	// Statistical experiments — whose headline numbers are rates and
	// latency quantiles of randomized protocols — declare more than one,
	// so their rendered tables ship with confidence intervals by default,
	// mirroring the paper's probabilistic-bounds argument.
	Replicas int
	// Run executes the harness and collects its structured result.
	Run func(cfg Config) *metrics.Result
}

// DefaultReplicas returns the replica count a runner should use when the
// user did not ask for a specific one.
func (e Experiment) DefaultReplicas() int {
	if e.Replicas < 1 {
		return 1
	}
	return e.Replicas
}

// Harnessed adapts an experiment to the harness.Scenario interface
// (satisfied structurally — this package does not import internal/harness):
// each replica derives its Config from the fresh kernel's seed.
type Harnessed struct {
	Exp   Experiment
	Short bool
	// Medium flows into Config.Medium for every replica.
	Medium bool
}

// Name implements harness.Scenario.
func (h Harnessed) Name() string { return h.Exp.ID }

// Run implements harness.Scenario.
func (h Harnessed) Run(k *sim.Kernel) (*metrics.Result, error) {
	return h.Exp.Run(Config{Seed: k.Seed(), Short: h.Short, Medium: h.Medium}), nil
}

// RunSharded implements harness.Shardable (structurally): the shard width
// flows into the experiment Config, where the world-building experiments
// split their scenarios across shard kernels. Experiments that ignore
// Shards — and the determinism contract of those that honor it — keep the
// output byte-identical for every width.
func (h Harnessed) RunSharded(_ context.Context, seed int64, shards int) (*metrics.Result, error) {
	return h.Exp.Run(Config{Seed: seed, Short: h.Short, Shards: shards, Medium: h.Medium}), nil
}

// All returns every experiment in id order.
func All() []Experiment {
	list := []Experiment{
		e1(), e2(), e3(), e4(), e5(), e6(), e7(), e8(),
		e9(), e10(), e11(), e12(), e13(), e14(), e15(), e16(),
		eMacS(),
	}
	sort.Slice(list, func(i, j int) bool {
		a, b := list[i].ID, list[j].ID
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return a < b
	})
	return list
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
