package sim

import "math/rand"

// Source is a splitmix64 generator: one uint64 of state, O(1) seeding, and
// full-period 2^64 output. Two properties matter here beyond speed:
//
//   - Seeding is a single multiply-xor mix, so constructing the ~50k
//     per-entity streams of a 10k-car world costs microseconds instead of
//     the ~60µs-per-stream lagged-Fibonacci warm-up of rand.NewSource.
//   - The entire generator state is one word, so a record/replay
//     checkpoint can capture every stream and restore it exactly —
//     replay then reproduces the same draws byte for byte.
//
// A Source is a value: a table of them is one dense slice of words, which
// is how a barrier that draws for thousands of receivers keeps their
// streams. Its Float64 draws exactly what rand.New(&src).Float64 would.
// Stream wraps a Source for the rest of math/rand's derivations.
type Source struct {
	state uint64
}

const (
	splitmixGamma = 0x9e3779b97f4a7c15
	splitmixMul1  = 0xbf58476d1ce4e5b9
	splitmixMul2  = 0x94d049bb133111eb
)

// NewSource returns the generator of one (entity, dim) pair derived from
// the run seed via SplitSeed — the generator a NewStream of the same
// arguments wraps.
func NewSource(seed, entity, dim int64) Source {
	return Source{state: uint64(SplitSeed(seed, entity*64+dim))}
}

// Seed implements rand.Source: the seed is taken as the raw state.
func (s *Source) Seed(seed int64) {
	s.state = uint64(seed)
}

// Uint64 implements rand.Source64.
func (s *Source) Uint64() uint64 {
	s.state += splitmixGamma
	z := s.state
	z = (z ^ (z >> 30)) * splitmixMul1
	z = (z ^ (z >> 27)) * splitmixMul2
	return z ^ (z >> 31)
}

// Int63 implements rand.Source.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() >> 1)
}

// Float64 returns a number in [0, 1), consuming the generator exactly as
// rand.Rand.Float64 does over this source: one Int63 per attempt, and a
// redraw in the (never observed) case that the quotient rounds to 1.
func (s *Source) Float64() float64 {
	for {
		if f := float64(s.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// State returns the generator state.
func (s *Source) State() uint64 { return s.state }

// Restore rewinds the generator to a state previously returned by State.
func (s *Source) Restore(state uint64) { s.state = state }

// Stream is a deterministic per-entity random stream with a snapshotable
// one-word state. It embeds *rand.Rand, so call sites keep using Float64,
// Int63n, NormFloat64, etc. All of those derivations are stateless over the
// underlying Source (only Rand.Read keeps extra state, which Streams must
// not use), so State/Restore capture the generator exactly.
type Stream struct {
	*rand.Rand
	src *Source
}

// State returns the stream's current generator state.
func (s *Stream) State() uint64 { return s.src.State() }

// Restore rewinds the stream to a state previously returned by State.
func (s *Stream) Restore(state uint64) { s.src.Restore(state) }
