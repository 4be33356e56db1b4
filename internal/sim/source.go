package sim

import "math/rand"

// source is a splitmix64 generator: one uint64 of state, O(1) seeding, and
// full-period 2^64 output. Two properties matter here beyond speed:
//
//   - Seeding is a single multiply-xor mix, so constructing the ~50k
//     per-entity streams of a 10k-car world costs microseconds instead of
//     the ~60µs-per-stream lagged-Fibonacci warm-up of rand.NewSource.
//   - The entire generator state is one word, so a record/replay
//     checkpoint can capture every stream and restore it exactly —
//     replay then reproduces the same draws byte for byte.
type source struct {
	state uint64
}

const (
	splitmixGamma = 0x9e3779b97f4a7c15
	splitmixMul1  = 0xbf58476d1ce4e5b9
	splitmixMul2  = 0x94d049bb133111eb
)

// Seed implements rand.Source. The raw seed is mixed once so that the
// near-collinear seeds produced by SplitSeed land in unrelated orbits.
func (s *source) Seed(seed int64) {
	s.state = uint64(seed)
}

// Uint64 implements rand.Source64.
func (s *source) Uint64() uint64 {
	s.state += splitmixGamma
	z := s.state
	z = (z ^ (z >> 30)) * splitmixMul1
	z = (z ^ (z >> 27)) * splitmixMul2
	return z ^ (z >> 31)
}

// Int63 implements rand.Source.
func (s *source) Int63() int64 {
	return int64(s.Uint64() >> 1)
}

// Stream is a deterministic per-entity random stream with a snapshotable
// one-word state. It embeds *rand.Rand, so call sites keep using Float64,
// Int63n, NormFloat64, etc. All of those derivations are stateless over the
// underlying Source64 (only Rand.Read keeps extra state, which Streams must
// not use), so State/Restore capture the generator exactly.
type Stream struct {
	*rand.Rand
	src *source
}

// State returns the stream's current generator state.
func (s *Stream) State() uint64 { return s.src.state }

// Restore rewinds the stream to a state previously returned by State.
func (s *Stream) Restore(state uint64) { s.src.state = state }
